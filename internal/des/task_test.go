package des

import (
	"reflect"
	"testing"
	"time"
)

// The tests below pin where each primitive suspends and resumes a process,
// and that the synchronous fast paths (buffered RecvK, open WaitK) run their
// continuation without yielding.

func TestSpawnTaskRunsSegmentsAndFinishes(t *testing.T) {
	sim := New()
	var trace []string
	sim.SpawnTask("worker", func(p *Proc) {
		trace = append(trace, "start")
		p.SleepK(5*time.Millisecond, func() {
			trace = append(trace, "tick")
			p.SleepK(5*time.Millisecond, func() {
				trace = append(trace, "done")
				// Segment returns without installing a continuation:
				// the task finishes here.
			})
		})
	})
	if sim.LiveProcs() != 1 {
		t.Fatalf("LiveProcs after SpawnTask = %d, want 1", sim.LiveProcs())
	}
	end := sim.Run()
	want := []string{"start", "tick", "done"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if end != 10*time.Millisecond {
		t.Fatalf("simulation ended at %v, want 10ms", end)
	}
	if sim.LiveProcs() != 0 {
		t.Fatalf("task still live after final segment: LiveProcs = %d", sim.LiveProcs())
	}
}

// Sleepers wake in order of their wake-up time, and those due at the same
// instant in the order they went to sleep.
func TestSleepKTiesWakeInSleepOrder(t *testing.T) {
	sim := New()
	var trace []string
	delays := []Time{3 * time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	for i, who := range []string{"a", "b", "c"} {
		d := delays[i]
		sim.SpawnTask(who, func(p *Proc) { p.SleepK(d, func() { trace = append(trace, who) }) })
	}
	sim.Run()
	if want := []string{"b", "a", "c"}; !reflect.DeepEqual(trace, want) {
		t.Fatalf("wake order = %v, want %v", trace, want)
	}
}

func TestRecvKBufferedRunsSynchronously(t *testing.T) {
	sim := New()
	ch := NewChan(sim)
	ch.Send(42)
	var got any
	var sameSegment bool
	sim.SpawnTask("rx", func(p *Proc) {
		inSegment := true
		ch.RecvK(p, func(v any) {
			got, sameSegment = v, inSegment
		})
		inSegment = false
	})
	sim.Run()
	if got != 42 {
		t.Fatalf("received %v, want 42", got)
	}
	if !sameSegment {
		t.Fatal("buffered RecvK yielded instead of running the continuation synchronously")
	}
}

func TestRecvKBlocksUntilSend(t *testing.T) {
	sim := New()
	ch := NewChan(sim)
	var got []any
	var gotAt Time
	sim.SpawnTask("rx", func(p *Proc) {
		ch.RecvK(p, func(v any) {
			got, gotAt = append(got, v), p.Now()
		})
	})
	sim.Schedule(2*time.Millisecond, func() { ch.Send("hi") })
	sim.Run()
	if !reflect.DeepEqual(got, []any{"hi"}) {
		t.Fatalf("received %v", got)
	}
	if gotAt != 2*time.Millisecond {
		t.Fatalf("received at %v, want 2ms", gotAt)
	}
}

func TestWaitKOpenGateIsSynchronousClosedGateParks(t *testing.T) {
	sim := New()
	open := NewGate(sim)
	open.Open()
	closed := NewGate(sim)
	var openAt, closedAt Time = -1, -1
	sim.SpawnTask("waiter", func(p *Proc) {
		open.WaitK(p, func() {
			openAt = p.Now()
			closed.WaitK(p, func() { closedAt = p.Now() })
		})
	})
	sim.Schedule(3*time.Millisecond, func() { closed.Open() })
	sim.Run()
	if openAt != 0 {
		t.Fatalf("open gate WaitK ran at %v, want 0", openAt)
	}
	if closedAt != 3*time.Millisecond {
		t.Fatalf("closed gate WaitK ran at %v, want 3ms", closedAt)
	}
}

func TestParkKUnparkRoundTrip(t *testing.T) {
	sim := New()
	var resumedAt Time = -1
	p := sim.SpawnTask("parked", func(p *Proc) {
		p.ParkK(func() { resumedAt = p.Now() })
	})
	sim.Schedule(7*time.Millisecond, func() { p.Unpark() })
	sim.Run()
	if resumedAt != 7*time.Millisecond {
		t.Fatalf("ParkK resumed at %v, want 7ms", resumedAt)
	}
}

func TestShutdownKillsParkedTask(t *testing.T) {
	sim := New()
	var resumed bool
	sim.SpawnTask("stuck", func(p *Proc) {
		p.ParkK(func() { resumed = true })
	})
	sim.Schedule(0, func() {}) // let the task reach its park
	sim.Run()
	if n := sim.Shutdown(); n != 1 {
		t.Fatalf("Shutdown killed %d processes, want 1", n)
	}
	if resumed {
		t.Fatal("killed task's continuation ran")
	}
	if sim.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d", sim.LiveProcs())
	}
}
