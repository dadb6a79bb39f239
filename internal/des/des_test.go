package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end time = %v, want 30ms", end)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v", got)
	}
}

func TestSameTimeEventsRunInInsertionOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(0, func() {})
	})
	s.Run()
}

func TestAfterNegativePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-time.Second, func() {})
}

// repeat runs body for i = 0 .. n-1 as one continuation chain — body goes on
// to the next round by calling next, typically from the continuation of the
// primitive that suspended it — and then done (nil: nothing).
func repeat(n int, body func(i int, next func()), done func()) {
	var round func(i int)
	round = func(i int) {
		if i < n {
			body(i, func() { round(i + 1) })
		} else if done != nil {
			done()
		}
	}
	round(0)
}

func TestProcSleepAdvancesClock(t *testing.T) {
	s := New()
	var at []Time
	s.SpawnTask("sleeper", func(p *Proc) {
		repeat(3, func(_ int, next func()) {
			p.SleepK(5*time.Millisecond, func() {
				at = append(at, p.Now())
				next()
			})
		}, nil)
	})
	s.Run()
	want := []Time{5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", at, want)
		}
	}
}

func TestProcZeroSleepYields(t *testing.T) {
	s := New()
	var got []string
	s.SpawnTask("a", func(p *Proc) {
		got = append(got, "a1")
		p.SleepK(0, func() { got = append(got, "a2") })
	})
	s.SpawnTask("b", func(p *Proc) {
		got = append(got, "b1")
		p.SleepK(0, func() { got = append(got, "b2") })
	})
	s.Run()
	if fmt.Sprint(got) != "[a1 b1 a2 b2]" {
		t.Fatalf("interleaving = %v", got)
	}
}

// A panic in a process — in its first segment or in a later one — is
// re-raised in the scheduler, out of Run, and finishes the process.
func TestProcPanicPropagates(t *testing.T) {
	for _, later := range []bool{false, true} {
		s := New()
		s.SpawnTask("boom", func(p *Proc) {
			if later {
				p.SleepK(time.Millisecond, func() { panic("kaboom") })
				return
			}
			panic("kaboom")
		})
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"boom" panicked: kaboom`) {
					t.Errorf("later=%v: Run raised %v, want the process panic", later, r)
				}
			}()
			s.Run()
		}()
		if s.LiveProcs() != 0 {
			t.Errorf("later=%v: the panicked process is still live", later)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	s.Schedule(3*time.Second, func() { fired++ })
	if drained := s.RunUntil(2 * time.Second); drained {
		t.Fatal("RunUntil claimed drained with a future event pending")
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !s.RunUntil(5 * time.Second) {
		t.Fatal("RunUntil did not drain")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestChanSendRecv(t *testing.T) {
	s := New()
	c := NewChan(s)
	var got []any
	s.SpawnTask("recv", func(p *Proc) {
		repeat(3, func(_ int, next func()) {
			c.RecvK(p, func(v any, ok bool) {
				if !ok {
					t.Error("unexpected close")
				}
				got = append(got, v)
				next()
			})
		}, nil)
	})
	s.SpawnTask("send", func(p *Proc) {
		repeat(3, func(i int, next func()) {
			p.SleepK(time.Millisecond, func() {
				c.Send(i)
				next()
			})
		}, nil)
	})
	s.Run()
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("got %v", got)
	}
}

func TestChanBufferedBeforeRecv(t *testing.T) {
	s := New()
	c := NewChan(s)
	c.Send("x")
	c.Send("y")
	var got []any
	s.SpawnTask("recv", func(p *Proc) {
		repeat(2, func(_ int, next func()) {
			c.RecvK(p, func(v any, _ bool) {
				got = append(got, v)
				next()
			})
		}, nil)
	})
	s.Run()
	if fmt.Sprint(got) != "[x y]" {
		t.Fatalf("got %v", got)
	}
}

func TestChanMultipleWaitersFIFO(t *testing.T) {
	s := New()
	c := NewChan(s)
	var got []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.SpawnTask(name, func(p *Proc) {
			c.RecvK(p, func(v any, _ bool) {
				got = append(got, fmt.Sprintf("%s=%v", name, v))
			})
		})
	}
	s.SpawnTask("send", func(p *Proc) {
		p.SleepK(time.Millisecond, func() {
			c.Send(1)
			c.Send(2)
			c.Send(3)
		})
	})
	s.Run()
	if fmt.Sprint(got) != "[w1=1 w2=2 w3=3]" {
		t.Fatalf("got %v", got)
	}
}

// A burst of k sends into one inbox (a 64-rank allreduce fanning into its
// root) followed by k receives: FIFO order, Len() tracking every step, and
// the same through a waiter queue drained by Send — the paths whose
// pop-front used to copy the whole tail.
func TestChanBurstFIFO(t *testing.T) {
	const k = 5000
	s := New()
	c := NewChan(s)
	for i := 0; i < k; i++ {
		c.Send(i)
		if c.Len() != i+1 {
			t.Fatalf("Len() = %d after %d sends", c.Len(), i+1)
		}
	}
	next := 0
	s.SpawnTask("recvk", func(p *Proc) {
		repeat(k, func(_ int, again func()) {
			c.RecvK(p, func(v any, ok bool) {
				if !ok || v != next {
					t.Fatalf("RecvK delivered (%v, %v), want (%d, true)", v, ok, next)
				}
				next++
				if c.Len() != k-next {
					t.Fatalf("Len() = %d after %d receives, want %d", c.Len(), next, k-next)
				}
				again()
			})
		}, nil)
	})
	s.Run()
	if next != k || c.Len() != 0 {
		t.Fatalf("received %d of %d, Len() = %d", next, k, c.Len())
	}
	// Interleaved refills after a partial drain must not reorder either.
	s.SpawnTask("refill", func(p *Proc) {
		for round := 0; round < 50; round++ {
			for i := 0; i < 7; i++ {
				c.Send(round*7 + i)
			}
			for i := 0; i < 5; i++ {
				// Buffered: the continuation runs inside the call.
				c.RecvK(p, func(v any, _ bool) {
					if v != round*5+i {
						t.Fatalf("round %d: got %v, want %d", round, v, round*5+i)
					}
				})
			}
		}
	})
	s.Run()
	if c.Len() != 100 {
		t.Fatalf("Len() = %d after the refill rounds, want 100", c.Len())
	}

	// The waiter side: k parked receivers, then a burst of k sends.
	w := NewChan(s)
	got := make([]int, 0, k)
	for i := 0; i < k; i++ {
		i := i
		s.SpawnTask("w", func(p *Proc) {
			w.RecvK(p, func(v any, ok bool) {
				if v != i {
					t.Errorf("waiter %d received %v", i, v)
				}
				got = append(got, i)
			})
		})
	}
	s.Run()
	for i := 0; i < k; i++ {
		w.Send(i)
	}
	s.Run()
	if len(got) != k {
		t.Fatalf("%d of %d waiters served", len(got), k)
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("waiter %d resumed at position %d", g, i)
		}
	}
}

func TestChanClose(t *testing.T) {
	s := New()
	c := NewChan(s)
	okSeen := true
	s.SpawnTask("recv", func(p *Proc) {
		c.RecvK(p, func(_ any, ok bool) { okSeen = ok })
	})
	s.SpawnTask("closer", func(p *Proc) {
		p.SleepK(time.Millisecond, func() {
			c.Close()
			c.Close() // idempotent
		})
	})
	s.Run()
	if okSeen {
		t.Fatal("RecvK on closed channel returned ok=true")
	}
}

func TestChanCloseDrainsBufferFirst(t *testing.T) {
	s := New()
	c := NewChan(s)
	c.Send(42)
	c.Close()
	closedSeen := false
	s.SpawnTask("recv", func(p *Proc) {
		c.RecvK(p, func(v any, ok bool) {
			if !ok || v.(int) != 42 {
				t.Errorf("got (%v,%v), want (42,true)", v, ok)
			}
			c.RecvK(p, func(_ any, ok bool) { closedSeen = !ok })
		})
	})
	s.Run()
	if !closedSeen {
		t.Error("second recv should report closed")
	}
}

func TestChanSendOnClosedPanics(t *testing.T) {
	s := New()
	c := NewChan(s)
	c.Close()
	defer func() {
		if recover() == nil {
			t.Error("send on closed channel did not panic")
		}
	}()
	c.Send(1)
}

func TestGate(t *testing.T) {
	s := New()
	g := NewGate(s)
	released := 0
	for i := 0; i < 3; i++ {
		s.SpawnTask("w", func(p *Proc) {
			g.WaitK(p, func() {
				released++
				if p.Now() != time.Second {
					t.Errorf("released at %v, want 1s", p.Now())
				}
			})
		})
	}
	s.Schedule(time.Second, func() { g.Open(); g.Open() })
	s.Run()
	if released != 3 {
		t.Fatalf("released = %d, want 3", released)
	}
	if !g.IsOpen() {
		t.Fatal("gate should be open")
	}
	// Late waiter passes straight through.
	s.SpawnTask("late", func(p *Proc) {
		g.WaitK(p, func() { released++ })
	})
	s.Run()
	if released != 4 {
		t.Fatalf("late waiter not released, released = %d", released)
	}
}

// runRandomWorkload executes a randomized producer/consumer workload and
// returns a trace of (time, value) pairs.
func runRandomWorkload(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	c := NewChan(s)
	var trace []string
	nprod, ncons, nmsg := 2+rng.Intn(3), 1+rng.Intn(3), 5+rng.Intn(20)
	total := nprod * nmsg
	for i := 0; i < nprod; i++ {
		i := i
		delay := Time(rng.Intn(1000)) * time.Microsecond
		s.SpawnTask(fmt.Sprintf("prod%d", i), func(p *Proc) {
			repeat(nmsg, func(m int, next func()) {
				p.SleepK(delay, func() {
					c.Send(i*1000 + m)
					next()
				})
			}, nil)
		})
	}
	got := 0
	for i := 0; i < ncons; i++ {
		s.SpawnTask(fmt.Sprintf("cons%d", i), func(p *Proc) {
			var loop func()
			loop = func() {
				if got >= total {
					return
				}
				c.RecvK(p, func(v any, ok bool) {
					if !ok {
						return
					}
					got++
					trace = append(trace, fmt.Sprintf("%v:%v", p.Now(), v))
					if got == total {
						c.Close()
					}
					loop()
				})
			}
			loop()
		})
	}
	s.Run()
	return fmt.Sprint(trace)
}

// TestDeterminism is the load-bearing property of the kernel: identical
// seeds must give identical event traces.
func TestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		return runRandomWorkload(seed) == runRandomWorkload(seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Events() != 5 {
		t.Fatalf("events = %d, want 5", s.Events())
	}
}

func TestLiveProcs(t *testing.T) {
	s := New()
	s.SpawnTask("a", func(p *Proc) { p.SleepK(time.Second, func() {}) })
	if s.LiveProcs() != 1 {
		t.Fatalf("live = %d, want 1", s.LiveProcs())
	}
	s.Run()
	if s.LiveProcs() != 0 {
		t.Fatalf("live = %d after run, want 0", s.LiveProcs())
	}
}

func TestSpawnManyProcsStress(t *testing.T) {
	// A few thousand processes exchanging through one channel: exercises
	// the scheduler's wake-up machinery at scale.
	s := New()
	c := NewChan(s)
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		s.SpawnTask("p", func(p *Proc) {
			p.SleepK(Time(i)*time.Microsecond, func() { c.Send(i) })
		})
	}
	s.SpawnTask("drain", func(p *Proc) {
		repeat(n, func(_ int, next func()) {
			c.RecvK(p, func(_ any, ok bool) {
				if ok {
					done++
				}
				next()
			})
		}, nil)
	})
	s.Run()
	if done != n {
		t.Fatalf("drained %d of %d", done, n)
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("%d processes leaked", s.LiveProcs())
	}
}

func TestGateWaitAfterOpenCostsNothing(t *testing.T) {
	s := New()
	g := NewGate(s)
	g.Open()
	passed := false
	s.SpawnTask("w", func(p *Proc) {
		before := p.Now()
		g.WaitK(p, func() {
			passed = true
			if p.Now() != before {
				t.Error("waiting on an open gate advanced time")
			}
		})
	})
	s.Run()
	if !passed {
		t.Error("the waiter never passed the open gate")
	}
}

func TestShutdownReapsParkedProcs(t *testing.T) {
	sim := New()
	resumed := 0
	for i := 0; i < 3; i++ {
		sim.SpawnTask("parked", func(p *Proc) {
			p.ParkK(func() { resumed++ }) // nothing ever unparks it
		})
	}
	finished := false
	sim.SpawnTask("finisher", func(p *Proc) { finished = true })
	sim.Run()
	if !finished {
		t.Fatal("finisher did not run")
	}
	if sim.LiveProcs() != 3 {
		t.Fatalf("LiveProcs = %d before shutdown, want 3", sim.LiveProcs())
	}
	if n := sim.Shutdown(); n != 3 {
		t.Fatalf("Shutdown reaped %d procs, want 3", n)
	}
	if sim.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after shutdown", sim.LiveProcs())
	}
	if resumed != 0 {
		t.Fatalf("%d reaped processes ran their continuation", resumed)
	}
	if sim.Shutdown() != 0 {
		t.Fatal("second Shutdown found processes")
	}
}
