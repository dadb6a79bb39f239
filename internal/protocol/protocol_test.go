package protocol

import "testing"

// fakeRuntime collects coordinator callbacks for inspection. Grace timers
// fire only when the test releases them.
type fakeRuntime struct {
	pending   []func()
	broadcast int
	cancels   int
}

func (f *fakeRuntime) AfterGrace(fn func()) func() {
	f.pending = append(f.pending, fn)
	return func() { f.cancels++ }
}

func (f *fakeRuntime) BroadcastStop() { f.broadcast++ }

func (f *fakeRuntime) fire() {
	p := f.pending
	f.pending = nil
	for _, fn := range p {
		fn()
	}
}

func params() Params { return Params{Eps: 1e-6}.WithDefaults() }

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Eps != DefaultEps || p.PersistIters != DefaultPersistIters ||
		p.MaxIters != DefaultMaxIters || p.Grace != DefaultGrace || p.Heartbeat != DefaultHeartbeat {
		t.Fatalf("defaults not applied: %+v", p)
	}
	// Explicit values survive.
	q := Params{Eps: 1, PersistIters: 7, MaxIters: 9, Grace: 11, Heartbeat: 13}.WithDefaults()
	if q != (Params{Eps: 1, PersistIters: 7, MaxIters: 9, Grace: 11, Heartbeat: 13}) {
		t.Fatalf("explicit params clobbered: %+v", q)
	}
}

// drive advances a rank with a converged residual and all channels fresh.
func drive(r *Rank, now Time, n int) (msgs []StateMsg) {
	for i := 0; i < n; i++ {
		now += 1000
		if st, ok := r.Step(now, 0, true, func(Time) bool { return true }, 0); ok {
			msgs = append(msgs, st)
		}
	}
	return msgs
}

func TestRankTwoPhaseConfirmation(t *testing.T) {
	r := NewRank(3, params())
	// PersistIters converged iterations enter phase 1; the next fresh
	// iteration confirms. No message before confirmation.
	msgs := drive(r, 0, DefaultPersistIters+1)
	if len(msgs) != 1 || !msgs[0].Converged || msgs[0].From != 3 || msgs[0].Seq != 1 {
		t.Fatalf("confirmation messages = %+v", msgs)
	}
	if !r.Confirmed() {
		t.Fatal("not confirmed after fresh converged streak")
	}
	// A residual bump retreats exactly once.
	st, ok := r.Step(10000, 1, true, func(Time) bool { return true }, 0)
	if !ok || st.Converged || st.Seq != 2 {
		t.Fatalf("retreat = %+v ok=%v", st, ok)
	}
	if _, ok := r.Step(11000, 1, true, func(Time) bool { return true }, 0); ok {
		t.Fatal("second retreat for the same bump")
	}
}

func TestRankFreshnessGate(t *testing.T) {
	r := NewRank(0, params())
	stale := func(Time) bool { return false }
	for i := 0; i < 50; i++ {
		if st, ok := r.Step(Time(i*1000), 0, true, stale, 0); ok {
			t.Fatalf("confirmed on stale channels: %+v", st)
		}
	}
	// One fresh delivery confirms.
	if _, ok := r.Step(51000, 0, true, func(Time) bool { return true }, 0); !ok {
		t.Fatal("fresh channels did not confirm")
	}
}

func TestRankUnheardChannelsNeverConverge(t *testing.T) {
	r := NewRank(0, params())
	for i := 0; i < 50; i++ {
		if _, ok := r.Step(Time(i*1000), 0, false, func(Time) bool { return true }, 0); ok {
			t.Fatal("converged without hearing every channel")
		}
	}
}

func TestRankNaNResidualResetsStreak(t *testing.T) {
	r := NewRank(0, params())
	nan := 0.0
	nan /= nan
	for i := 0; i < 50; i++ {
		if _, ok := r.Step(Time(i*1000), nan, true, func(Time) bool { return true }, 0); ok {
			t.Fatal("NaN residual confirmed")
		}
	}
}

func TestRankHeartbeat(t *testing.T) {
	p := params()
	r := NewRank(1, p)
	drive(r, 0, DefaultPersistIters+1)
	// Iterations inside the heartbeat interval stay quiet; crossing it
	// re-announces.
	if _, ok := r.Step(Time(1000*(DefaultPersistIters+1))+p.Heartbeat/2, 0, true, func(Time) bool { return true }, 0); ok {
		t.Fatal("heartbeat inside the interval")
	}
	st, ok := r.Step(Time(1000*(DefaultPersistIters+1))+p.Heartbeat+1000, 0, true, func(Time) bool { return true }, 0)
	if !ok || !st.Converged {
		t.Fatalf("no heartbeat after the interval: %+v ok=%v", st, ok)
	}
	if r.Heartbeats() != 1 {
		t.Fatalf("heartbeats = %d", r.Heartbeats())
	}
}

// Quiet says when Step would only count the streak — and Spin(n) stands
// for n such Steps: a quiet rank's machine after Spin answers every later
// Step exactly as one stepped n times does.
func TestRankQuietSpinEqualsSteps(t *testing.T) {
	stale := func(Time) bool { return false }
	fresh := func(Time) bool { return true }
	type phase struct {
		name     string
		heard    bool
		setup    func(r *Rank)
		quiet    bool
		beatsDue bool
	}
	phases := []phase{
		{"unheard", false, func(r *Rank) {}, true, false},
		{"heard, streak short", true, func(r *Rank) {}, false, false},
		{"awaiting confirmation", true, func(r *Rank) {
			for i := 0; i < DefaultPersistIters; i++ {
				r.Step(Time(i), 0, true, stale, 0)
			}
		}, true, false},
		{"confirmed", true, func(r *Rank) { drive(r, 0, DefaultPersistIters+1) }, true, true},
	}
	for _, ph := range phases {
		stepped, spun := NewRank(0, params()), NewRank(0, params())
		ph.setup(stepped)
		ph.setup(spun)
		hb, beats, quiet := spun.Quiet(ph.heard)
		if quiet != ph.quiet || beats != ph.beatsDue {
			t.Fatalf("%s: Quiet = (%v, %v), want (%v, %v)", ph.name, beats, quiet, ph.beatsDue, ph.quiet)
		}
		if !quiet {
			continue
		}
		const n = 1000
		start := Time(1e6)
		if beats && hb != spun.lastStateAt+params().Heartbeat {
			t.Fatalf("%s: heartbeat due %v", ph.name, hb)
		}
		for i := 1; i <= n; i++ {
			if _, ok := stepped.Step(start+Time(i), 0, ph.heard, stale, 0); ok {
				t.Fatalf("%s: a quiet Step emitted", ph.name)
			}
		}
		spun.Spin(n)
		// Whatever comes next — more quiet Steps, the gate opening, a bump
		// — both machines answer alike.
		for i, next := range []func(r *Rank) (StateMsg, bool){
			func(r *Rank) (StateMsg, bool) { return r.Step(start+n+1, 0, ph.heard, stale, 0) },
			func(r *Rank) (StateMsg, bool) { return r.Step(start+n+2, 0, true, fresh, 0) },
			func(r *Rank) (StateMsg, bool) { return r.Step(start+n+3, 1, true, fresh, 0) },
		} {
			a, aok := next(stepped)
			b, bok := next(spun)
			if a != b || aok != bok || *stepped != *spun {
				t.Fatalf("%s, step %d: stepped %+v %v, spun %+v %v", ph.name, i, a, aok, b, bok)
			}
		}
	}
}

func TestRankStateLoss(t *testing.T) {
	r := NewRank(2, params())
	drive(r, 0, DefaultPersistIters+1)
	st, ok := r.StateLost(0)
	if !ok || st.Converged {
		t.Fatalf("confirmed rank's state loss must retreat: %+v ok=%v", st, ok)
	}
	if !r.NeedReconfirm() || r.Confirmed() {
		t.Fatal("state loss did not reset the machine")
	}
	// Unconfirmed state loss is silent but still flags the debt.
	r2 := NewRank(4, params())
	if _, ok := r2.StateLost(0); ok {
		t.Fatal("unconfirmed rank retreated")
	}
	if !r2.NeedReconfirm() {
		t.Fatal("debt not flagged")
	}
	// Re-confirmation clears the debt and counts a reconfirm round.
	drive(r, 100000, DefaultPersistIters+1)
	if r.NeedReconfirm() || r.Reconfirms() != 1 {
		t.Fatalf("reconfirm: debt=%v rounds=%d", r.NeedReconfirm(), r.Reconfirms())
	}
	// Validate is the synchronous path to the same outcome.
	r2.Validate()
	if r2.NeedReconfirm() || r2.Reconfirms() != 1 {
		t.Fatalf("validate: debt=%v rounds=%d", r2.NeedReconfirm(), r2.Reconfirms())
	}
}

func TestCoordinatorStopsAfterGrace(t *testing.T) {
	rt := &fakeRuntime{}
	c := NewCoordinator(3, params(), rt)
	for from := 0; from < 3; from++ {
		c.OnState(StateMsg{From: from, Converged: true, Seq: 1})
	}
	if len(rt.pending) != 1 || rt.broadcast != 0 {
		t.Fatalf("arm state: pending=%d broadcast=%d", len(rt.pending), rt.broadcast)
	}
	rt.fire()
	if !c.Stopped() || rt.broadcast != 1 {
		t.Fatalf("stop state: stopped=%v broadcast=%d", c.Stopped(), rt.broadcast)
	}
	if c.Msgs() != 3 {
		t.Fatalf("msgs = %d", c.Msgs())
	}
}

func TestCoordinatorRetreatCancelsPendingStop(t *testing.T) {
	rt := &fakeRuntime{}
	c := NewCoordinator(2, params(), rt)
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 1})
	c.OnState(StateMsg{From: 1, Converged: true, Seq: 1})
	// Retreat inside the grace window: the pending stop must not fire.
	c.OnState(StateMsg{From: 0, Converged: false, Seq: 2})
	rt.fire()
	if c.Stopped() || rt.broadcast != 0 {
		t.Fatalf("cancelled stop fired: stopped=%v broadcast=%d", c.Stopped(), rt.broadcast)
	}
	// Re-confirmation arms again and stops.
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 3})
	rt.fire()
	if !c.Stopped() || rt.broadcast != 1 {
		t.Fatalf("re-armed stop: stopped=%v broadcast=%d", c.Stopped(), rt.broadcast)
	}
}

func TestCoordinatorPostStopHeartbeatRebroadcasts(t *testing.T) {
	rt := &fakeRuntime{}
	c := NewCoordinator(1, params(), rt)
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 1})
	rt.fire()
	if !c.Stopped() {
		t.Fatal("did not stop")
	}
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 2})
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 3})
	if c.Rebroadcasts() != 2 || rt.broadcast != 3 {
		t.Fatalf("rebroadcasts=%d broadcast=%d", c.Rebroadcasts(), rt.broadcast)
	}
}

func TestCoordinatorDuplicateAndMaxGap(t *testing.T) {
	rt := &fakeRuntime{}
	c := NewCoordinator(2, params(), rt)
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 1, MaxGap: 7})
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 2, MaxGap: 11}) // duplicate
	if len(rt.pending) != 0 {
		t.Fatal("armed below full count")
	}
	if c.MaxGap() != 11 {
		t.Fatalf("maxGap = %d", c.MaxGap())
	}
	if c.Msgs() != 2 {
		t.Fatalf("msgs = %d", c.Msgs())
	}
}

func TestCoordinatorResetInvalidatesPendingStop(t *testing.T) {
	rt := &fakeRuntime{}
	c := NewCoordinator(1, params(), rt)
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 1})
	c.Reset()
	rt.fire()
	if c.Stopped() || rt.broadcast != 0 {
		t.Fatal("pending stop survived Reset")
	}
}

func TestCoordinatorClose(t *testing.T) {
	rt := &fakeRuntime{}
	c := NewCoordinator(1, params(), rt)
	c.OnState(StateMsg{From: 0, Converged: true, Seq: 1})
	c.Close()
	if rt.cancels != 1 {
		t.Fatalf("cancels = %d", rt.cancels)
	}
	c.Close() // idempotent
	if rt.cancels != 1 {
		t.Fatalf("double cancel: %d", rt.cancels)
	}
}

func TestStallGuard(t *testing.T) {
	var g StallGuard
	if !g.Stalled() {
		t.Fatal("no ticks yet must read as stalled")
	}
	g.Tick()
	if g.Stalled() {
		t.Fatal("fresh tick read as stalled")
	}
	if !g.Stalled() {
		t.Fatal("quiet interval not detected")
	}
	if g.Ticks() != 1 {
		t.Fatalf("ticks = %d", g.Ticks())
	}
}
