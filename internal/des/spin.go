package des

import "slices"

// Spins. A process that does the same thing every period — charge a CPU
// for d, wake, charge it again — costs two events a period. A Spin parks it
// on the lattice t0, t0+d, … of its period boundaries instead; when
// something reaches it, its owner folds the ended periods in at once and
// turns the period in progress back into a real completion (ScheduleEnd),
// which sorts exactly where the per-period completion — enqueued when the
// period began — would have: after every event enqueued before that
// boundary, before every event enqueued after. The simulator records that
// order as a mark whenever the clock passes a boundary (ordinary events
// are numbered seqStep apart; marks take the numbers between, in the order
// taken), and hands an instant that is itself a boundary, or the spin's
// deadline, to the owner before any event of it runs: the owner must stop
// the spin there, and its completion joins the instant's events in order.

// seqStep is the gap between the sequence numbers of consecutive events.
const seqStep = 1 << 20

// Spin is the boundary lattice of a process spinning without events. The
// zero value is stopped; a Spin may be started again once stopped.
type Spin struct {
	sim        *Simulator
	t0, d, due Time
	n          int64  // boundaries t0+d … t0+n·d are behind the clock
	mark       uint64 // the order key of period n's completion
	onBoundary func()
}

// Start registers the spin: periods of d from now, and the clock enters
// boundary due (>= 1) even if nothing else happens there.
func (sp *Spin) Start(sim *Simulator, d Time, due int64, onBoundary func()) {
	if d <= 0 || due < 1 || sp.sim != nil {
		panic("des: bad spin start")
	}
	*sp = Spin{sim: sim, t0: sim.now, d: d, due: sim.now + Time(due)*d, mark: sim.newMark(), onBoundary: onBoundary}
	if len(sim.spins) == 0 || sp.due < sim.spinDue {
		sim.spinDue = sp.due
	}
	sim.spins = append(sim.spins, sp)
}

// Running reports whether the spin is registered.
func (sp *Spin) Running() bool { return sp.sim != nil }

// Lattice returns when the first period began, the period, and how many
// periods have ended.
func (sp *Spin) Lattice() (t0, d Time, n int64) { return sp.t0, sp.d, sp.n }

// ScheduleEnd schedules h.Fire(arg) at the end of the period in progress,
// ordered as though it had been enqueued when the period began.
func (sp *Spin) ScheduleEnd(h Handler, arg uint64) {
	s := sp.sim
	at := sp.t0 + Time(sp.n+1)*sp.d
	if s.onEnqueue != nil {
		s.onEnqueue(at)
	}
	s.q.heap = pushEvent(s.q.heap, event{at: at, seq: sp.mark, h: h, arg: arg})
	s.high = max(s.high, s.q.len())
}

// Stop unregisters the spin.
func (sp *Spin) Stop() {
	s := sp.sim
	if s == nil {
		return
	}
	i := slices.Index(s.spins, sp)
	s.spins = slices.Delete(s.spins, i, i+1)
	sp.sim = nil
	for j, o := range s.spins {
		if j == 0 || o.due < s.spinDue {
			s.spinDue = o.due
		}
	}
}

// next returns the instant the clock moves to next: the earliest pending
// event's, or a spin's deadline if that comes first.
func (s *Simulator) next() (Time, bool) {
	at, ok := s.q.next(s.now)
	if len(s.spins) > 0 && (!ok || s.spinDue < at) {
		return s.spinDue, true
	}
	return at, ok
}

// newMark returns a sequence number above every event enqueued so far,
// below every event enqueued from now on, and above the marks taken since
// the last enqueue.
func (s *Simulator) newMark() uint64 {
	if s.markBase != s.seq {
		s.markBase, s.marks = s.seq, 0
	}
	if s.marks++; s.marks >= seqStep {
		panic("des: too many spin marks between two events")
	}
	return s.seq + s.marks
}

// enterSpins moves the clock to the new instant at and brings every spin
// up to it: boundaries passed get their mark, and a spin with a boundary
// at at is handed to its owner before the instant's first event runs.
//
//lint:hotpath
func (s *Simulator) enterSpins(at Time) {
	s.now = at
	for i := 0; i < len(s.spins); {
		sp := s.spins[i]
		k := int64((at - sp.t0) / sp.d)
		if k > sp.n && (at-sp.t0)%sp.d == 0 {
			if k-1 > sp.n {
				sp.n, sp.mark = k-1, s.newMark()
			}
			sp.onBoundary()
			if sp.sim != nil {
				panic("des: spin not stopped at its boundary")
			}
			continue // Stop moved the next spin into slot i
		}
		if k > sp.n {
			sp.n, sp.mark = k, s.newMark()
		}
		i++
	}
}
