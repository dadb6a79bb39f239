package des

import (
	"container/heap"
	"testing"
)

// refSim is the pre-ladder scheduler core, frozen: container/heap over
// *event, a closure per event. FuzzQueueOrder runs one script on it and on
// the real Simulator and demands the same execution order.
type refSim struct {
	now Time
	h   eventHeap
	seq uint64
}

func (r *refSim) Now() Time { return r.now }

func (r *refSim) Schedule(at Time, fn func()) {
	if at < r.now {
		panic("refSim: schedule before now")
	}
	r.seq++
	heap.Push(&r.h, &event{at: at, seq: r.seq, h: funcEvent(fn)})
}

// Sleeper mirrors a task that sleeps d and then runs k: one activation
// event at now, one wake-up d later — the two events SpawnTask and SleepK
// enqueue, as closures.
func (r *refSim) Sleeper(d Time, k func()) {
	r.Schedule(r.now, func() { r.Schedule(r.now+d, k) })
}

func (r *refSim) Run() {
	for len(r.h) > 0 {
		e := heap.Pop(&r.h).(*event)
		r.now = e.at
		e.h.Fire(0)
	}
}

// realSim adapts the Simulator to the script interpreter.
type realSim struct{ *Simulator }

func (r realSim) Sleeper(d Time, k func()) {
	r.SpawnTask("sleeper", func(p *Proc) { p.SleepK(d, k) })
}

type scriptSim interface {
	Now() Time
	Schedule(at Time, fn func())
	Sleeper(d Time, k func())
	Run() // returns when the queue is empty
}

func (r realSim) Run() { r.Simulator.Run() }

// firing is one executed event: which one, and when.
type firing struct {
	id int
	at Time
}

// scriptDeltas are the distances a scripted event schedules at: mostly
// zero and tiny, so timestamps collide constantly.
var scriptDeltas = [8]Time{0, 0, 1, 1, 2, 50, 1000, 1000000}

// runScript interprets data as a schedule: the first byte seeds up to
// eight root events, and every event that runs reads the next byte to
// decide how many children it schedules from inside itself (0–3), each
// child reading one byte for its distance (ties likely) and its kind —
// a plain callback, or a task that is spawned, sleeps and then fires (the
// closure-free wake-up path). The cursor advances in execution order, so
// two schedulers agree on the fired list exactly when they agree on the
// order of every event.
func runScript(data []byte, s scriptSim) []firing {
	var fired []firing
	pos, nextID := 0, 0
	next := func() (byte, bool) {
		if pos == len(data) {
			return 0, false
		}
		pos++
		return data[pos-1], true
	}
	var fire func(id int) func()
	spawn := func() {
		b, ok := next()
		if !ok {
			return
		}
		nextID++
		d := scriptDeltas[b&7]
		if b&0x80 != 0 {
			s.Sleeper(d, fire(nextID))
		} else {
			s.Schedule(s.Now()+d, fire(nextID))
		}
	}
	fire = func(id int) func() {
		return func() {
			fired = append(fired, firing{id, s.Now()})
			b, _ := next()
			for k := 0; k < int(b&3); k++ {
				spawn()
			}
		}
	}
	b, _ := next()
	for k := 0; k <= int(b&7); k++ {
		spawn()
	}
	s.Run()
	return fired
}

// longScript is the seed that exercises every distance and both kinds.
func longScript() []byte {
	long := make([]byte, 4096)
	for i := range long {
		long[i] = byte(i*131 + i/7)
	}
	return long
}

// TestScriptExercisesNowLane: the scripts FuzzQueueOrder interprets must
// load the lane the composite queue adds — at least a quarter of the
// events pushed from inside a running event are due at that very instant
// (two of the eight distances are zero, and every spawned sleeper starts
// at now).
func TestScriptExercisesNowLane(t *testing.T) {
	sim := New()
	inside, atNow := 0, 0
	sim.onEnqueue = func(at Time) {
		if sim.events == 0 {
			return // a root event, scheduled before Run
		}
		inside++
		if at == sim.now {
			atNow++
		}
	}
	runScript(longScript(), realSim{sim})
	if inside < 1000 || 4*atNow < inside {
		t.Fatalf("%d of %d pushes from inside running events were zero-delay; want at least a quarter of a thousand or more", atNow, inside)
	}
}

func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{3, 0x80, 0x81, 0, 0x86, 2, 0x80, 0, 3, 0x82, 0x82, 2, 1, 1, 0x87, 0, 0})
	f.Add(longScript())
	f.Fuzz(func(t *testing.T, data []byte) {
		want := runScript(data, &refSim{})
		sim := New()
		got := runScript(data, realSim{sim})
		if len(got) != len(want) {
			t.Fatalf("fired %d events, frozen baseline fired %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d ran as %+v, frozen baseline ran %+v", i, got[i], want[i])
			}
		}
		if sim.QueueHighWater() > len(data)+8 {
			t.Fatalf("high water %d exceeds the %d events the script can create", sim.QueueHighWater(), len(data)+8)
		}
	})
}
