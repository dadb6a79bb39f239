package des

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The two lanes of queue.go seen through the Simulator: wherever an event
// waits, it runs in (timestamp, insertion) order, and Run, Shutdown and
// QueueHighWater account for both lanes.

// Events due at one instant come from both lanes: those scheduled before
// the clock got there (heap) run first, in insertion order, then those
// scheduled at that instant (ring) — including the ones ring events
// schedule themselves.
func TestSameInstantOrderAcrossLanes(t *testing.T) {
	s := New()
	var order []string
	mark := func(name string) func() { return func() { order = append(order, name) } }
	s.Schedule(time.Second, func() {
		order = append(order, "heap1")
		s.Schedule(s.Now(), func() {
			order = append(order, "ring1")
			// Scheduling at now from inside a ring event queues behind
			// every entry already in the ring.
			s.Schedule(s.Now(), mark("ring3"))
			s.After(time.Nanosecond, mark("later"))
		})
	})
	s.Schedule(time.Second, func() {
		order = append(order, "heap2")
		s.After(0, mark("ring2"))
	})
	s.Schedule(time.Second, mark("heap3"))
	s.Run()
	want := []string{"heap1", "heap2", "heap3", "ring1", "ring2", "ring3", "later"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.Now() != time.Second+time.Nanosecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

// Shutdown with wake-ups still waiting in the ring: the processes are
// reaped all the same, and the stale wake-ups find them done.
func TestShutdownWithRingPending(t *testing.T) {
	s := New()
	resumed := 0
	var parked []*Proc
	for i := 0; i < 2; i++ {
		parked = append(parked, s.SpawnTask(fmt.Sprintf("parked%d", i), func(p *Proc) {
			p.ParkK(func() { resumed++ })
		}))
	}
	s.Run()
	for _, p := range parked {
		p.Unpark() // now-lane entries; the scheduler is idle
	}
	ran := false
	s.Schedule(s.Now(), func() { ran = true })
	if n := s.Shutdown(); n != 2 {
		t.Fatalf("Shutdown reaped %d, want 2", n)
	}
	s.Run()
	if resumed != 0 {
		t.Fatalf("%d reaped tasks resumed from stale wake-ups", resumed)
	}
	if !ran {
		t.Fatal("the plain ring event was lost")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d", s.LiveProcs())
	}
}

// QueueHighWater counts pending events wherever they wait.
func TestQueueHighWaterCountsBothLanes(t *testing.T) {
	s := New()
	nop := func() {}
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i+1)*time.Second, nop) // heap
	}
	for i := 0; i < 40; i++ {
		s.Schedule(0, nop) // ring, grown past its first allocation
	}
	if got := s.QueueHighWater(); got != 45 {
		t.Fatalf("high water = %d, want 45", got)
	}
	s.Run()
	if got := s.QueueHighWater(); got != 45 {
		t.Fatalf("high water moved to %d while draining", got)
	}
	if s.Events() != 45 {
		t.Fatalf("events = %d", s.Events())
	}
}

// countHandler is a Handler that is its own event target.
type countHandler struct{ args []uint64 }

func (c *countHandler) Fire(arg uint64) { c.args = append(c.args, arg) }

func TestScheduleHandlerCarriesArg(t *testing.T) {
	s := New()
	h := &countHandler{}
	s.AfterHandler(2, h, 20)
	s.ScheduleHandler(1, h, 10)
	s.ScheduleHandler(0, h, 0)
	s.Run()
	if !reflect.DeepEqual(h.args, []uint64{0, 10, 20}) {
		t.Fatalf("args = %v", h.args)
	}
	defer func() {
		if recover() == nil {
			t.Error("ScheduleHandler in the past did not panic")
		}
	}()
	s.ScheduleHandler(1, h, 0)
}

// A reset gate blocks again, reuses its waiter storage, and forgets the
// waiters of the round before.
func TestGateResetBlocksAgain(t *testing.T) {
	s := New()
	g := NewGate(s)
	rounds := 0
	var waiter *Proc
	var wait func()
	wait = func() {
		if rounds == 3 {
			return
		}
		rounds++
		g.Reset()
		g.WaitK(waiter, wait)
	}
	waiter = s.SpawnTask("waiter", func(p *Proc) { wait() })
	for i := 1; i <= 3; i++ {
		s.Schedule(time.Duration(i)*time.Second, g.Open)
	}
	s.Run()
	if rounds != 3 || s.Now() != 3*time.Second || s.LiveProcs() != 0 {
		t.Fatalf("rounds = %d at %v with %d live", rounds, s.Now(), s.LiveProcs())
	}
	if !g.IsOpen() || len(g.waiters) != 0 {
		t.Fatalf("gate open = %v with %d waiters", g.IsOpen(), len(g.waiters))
	}
	store := &g.waiters[:1][0]
	g.Reset()
	s.SpawnTask("again", func(p *Proc) { g.WaitK(p, func() {}) })
	s.Run()
	if &g.waiters[0] != store {
		t.Error("Reset dropped the waiter storage")
	}
	g.Reset() // forgets the parked task
	g.Open()
	if s.Run(); s.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d; a forgotten waiter must stay parked", s.LiveProcs())
	}
	s.Shutdown()
}
