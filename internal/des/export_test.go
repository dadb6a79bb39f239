package des

// What record_test.go (package des_test) needs of the ladder. That file has
// to be an external test package: it stages real simulated cells through
// internal/matrix and internal/aiac, which import des.

type OpStream = opStream

const ShippedVariant = shippedVariant

var MeasureLadder = measureLadder

// LadderVariants names the measured rungs, in table order.
func LadderVariants() (names []string) {
	for _, v := range ladderVariants() {
		names = append(names, v.name)
	}
	return names
}

func (s OpStream) Name() string { return s.name }

func (s OpStream) Counts() (pushes, pops, ties int) { return s.counts() }

// LadderValidity replays every measured rung against the frozen baseline on
// streams and returns, per invalid rung, where it first diverged.
func LadderValidity(streams []OpStream) map[string]string {
	bad := map[string]string{}
	for _, v := range ladderVariants() {
		if ok, why := validOn(v, streams); !ok {
			bad[v.name] = why
		}
	}
	return bad
}

// RecordOps records s's queue workload — every enqueue with its timestamp,
// every pop in its place between them — from now until the returned
// function is called.
func RecordOps(s *Simulator, name string) (stop func() OpStream) {
	var ops []Time
	var pops uint64
	catchUp := func() {
		for ; pops < s.events; pops++ {
			ops = append(ops, popOp)
		}
	}
	s.onEnqueue = func(at Time) {
		catchUp()
		ops = append(ops, at)
	}
	return func() OpStream {
		catchUp()
		s.onEnqueue = nil
		return opStream{name: name, ops: ops}
	}
}
