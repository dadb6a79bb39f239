package des

import (
	"fmt"
	"math/rand"
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

func TestProcSleepAdvancesClock(t *testing.T) {
	s := New()
	var at []Time
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5 * time.Millisecond)
			at = append(at, p.Now())
		}
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
	s.Spawn("a", func(p *Proc) {
		got = append(got, "a1")
		p.Sleep(0)
		got = append(got, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		got = append(got, "b1")
		p.Sleep(0)
		got = append(got, "b2")
	})
	s.Run()
	if fmt.Sprint(got) != "[a1 b1 a2 b2]" {
		t.Fatalf("interleaving = %v", got)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New()
	s.Spawn("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate out of Run")
		}
	}()
	s.Run()
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
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := c.Recv(p)
			if !ok {
				t.Error("unexpected close")
			}
			got = append(got, v)
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			c.Send(i)
		}
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
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, _ := c.Recv(p)
			got = append(got, v)
		}
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
		s.Spawn(name, func(p *Proc) {
			v, _ := c.Recv(p)
			got = append(got, fmt.Sprintf("%s=%v", name, v))
		})
	}
	s.Spawn("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Send(1)
		c.Send(2)
		c.Send(3)
	})
	s.Run()
	if fmt.Sprint(got) != "[w1=1 w2=2 w3=3]" {
		t.Fatalf("got %v", got)
	}
}

// A burst of k sends into one inbox (a 64-rank allreduce fanning into its
// root) followed by k receives: FIFO order, Len() tracking every step, and
// the same through TryRecv, RecvK and a waiter queue drained by Send — the
// paths whose pop-front used to copy the whole tail.
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
	check := func(how string, v any, ok bool) {
		t.Helper()
		if !ok || v != next {
			t.Fatalf("%s delivered (%v, %v), want (%d, true)", how, v, ok, next)
		}
		next++
		if c.Len() != k-next {
			t.Fatalf("Len() = %d after %d receives, want %d", c.Len(), next, k-next)
		}
	}
	for i := 0; i < k/4; i++ {
		v, ok := c.TryRecv()
		check("TryRecv", v, ok)
	}
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < k/4; i++ {
			v, ok := c.Recv(p)
			check("Recv", v, ok)
		}
	})
	s.Run()
	s.SpawnTask("recvk", func(p *Proc) {
		var loop func()
		loop = func() {
			if next == k {
				return
			}
			c.RecvK(p, func(v any, ok bool) {
				check("RecvK", v, ok)
				loop()
			})
		}
		loop()
	})
	s.Run()
	if next != k || c.Len() != 0 {
		t.Fatalf("received %d of %d, Len() = %d", next, k, c.Len())
	}
	// Interleaved refills after a partial drain must not reorder either.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			c.Send(round*7 + i)
		}
		for i := 0; i < 5; i++ {
			if v, _ := c.TryRecv(); v != round*5+i {
				t.Fatalf("round %d: got %v, want %d", round, v, round*5+i)
			}
		}
	}
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
	s.Spawn("recv", func(p *Proc) {
		_, okSeen = c.Recv(p)
	})
	s.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Close()
		c.Close() // idempotent
	})
	s.Run()
	if okSeen {
		t.Fatal("Recv on closed channel returned ok=true")
	}
}

func TestChanCloseDrainsBufferFirst(t *testing.T) {
	s := New()
	c := NewChan(s)
	c.Send(42)
	c.Close()
	s.Spawn("recv", func(p *Proc) {
		v, ok := c.Recv(p)
		if !ok || v.(int) != 42 {
			t.Errorf("got (%v,%v), want (42,true)", v, ok)
		}
		if _, ok := c.Recv(p); ok {
			t.Error("second recv should report closed")
		}
	})
	s.Run()
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

func TestChanRecvTimeout(t *testing.T) {
	s := New()
	c := NewChan(s)
	var timedOut, gotValue bool
	s.Spawn("recv", func(p *Proc) {
		if _, ok := c.RecvTimeout(p, 10*time.Millisecond); !ok {
			timedOut = true
		}
		if p.Now() != 10*time.Millisecond {
			t.Errorf("timeout at %v, want 10ms", p.Now())
		}
		v, ok := c.RecvTimeout(p, 100*time.Millisecond)
		gotValue = ok && v.(string) == "late"
	})
	s.Schedule(30*time.Millisecond, func() { c.Send("late") })
	s.Run()
	if !timedOut {
		t.Error("first recv should have timed out")
	}
	if !gotValue {
		t.Error("second recv should have received the value")
	}
}

func TestChanStaleTimerDoesNotCorruptLaterWait(t *testing.T) {
	s := New()
	c := NewChan(s)
	var second any
	s.Spawn("recv", func(p *Proc) {
		// Value arrives before the timeout; the pending timer must not
		// disturb the plain Recv that follows.
		if v, ok := c.RecvTimeout(p, 50*time.Millisecond); !ok || v.(int) != 1 {
			t.Errorf("first recv got (%v,%v)", v, ok)
		}
		second, _ = c.Recv(p)
	})
	s.Schedule(time.Millisecond, func() { c.Send(1) })
	s.Schedule(200*time.Millisecond, func() { c.Send(2) })
	s.Run()
	if second != 2 {
		t.Fatalf("second recv got %v, want 2", second)
	}
}

func TestGate(t *testing.T) {
	s := New()
	g := NewGate(s)
	released := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			g.Wait(p)
			released++
			if p.Now() != time.Second {
				t.Errorf("released at %v, want 1s", p.Now())
			}
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
	s.Spawn("late", func(p *Proc) {
		g.Wait(p)
		released++
	})
	s.Run()
	if released != 4 {
		t.Fatalf("late waiter not released, released = %d", released)
	}
}

func TestBarrierRounds(t *testing.T) {
	s := New()
	const n = 4
	b := NewBarrier(s, n)
	var log []string
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Sleep(Time(i+1) * time.Millisecond) // staggered arrivals
				b.Wait(p)
				log = append(log, fmt.Sprintf("r%d", round))
			}
		})
	}
	s.Run()
	if len(log) != 3*n {
		t.Fatalf("len(log) = %d", len(log))
	}
	// All n completions of round k must precede any completion of round k+1.
	for i, entry := range log {
		if want := fmt.Sprintf("r%d", i/n); entry != want {
			t.Fatalf("log[%d] = %s, want %s (full: %v)", i, entry, want, log)
		}
	}
	if b.Round() != 3 {
		t.Fatalf("rounds = %d, want 3", b.Round())
	}
}

func TestBarrierSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size barrier did not panic")
		}
	}()
	NewBarrier(New(), 0)
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
		s.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
			for m := 0; m < nmsg; m++ {
				p.Sleep(delay)
				c.Send(i*1000 + m)
			}
		})
	}
	got := 0
	for i := 0; i < ncons; i++ {
		s.Spawn(fmt.Sprintf("cons%d", i), func(p *Proc) {
			for got < total {
				v, ok := c.Recv(p)
				if !ok {
					return
				}
				got++
				trace = append(trace, fmt.Sprintf("%v:%v", p.Now(), v))
				if got == total {
					c.Close()
				}
			}
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
	s.Spawn("a", func(p *Proc) { p.Sleep(time.Second) })
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
	// the scheduler's handoff machinery at scale.
	s := New()
	c := NewChan(s)
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Time(i) * time.Microsecond)
			c.Send(i)
		})
	}
	s.Spawn("drain", func(p *Proc) {
		for j := 0; j < n; j++ {
			if _, ok := c.Recv(p); ok {
				done++
			}
		}
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
	s.Spawn("w", func(p *Proc) {
		before := p.Now()
		g.Wait(p)
		if p.Now() != before {
			t.Error("waiting on an open gate advanced time")
		}
	})
	s.Run()
}

func TestShutdownReapsParkedProcs(t *testing.T) {
	sim := New()
	cleanedUp := 0
	for i := 0; i < 3; i++ {
		sim.Spawn("parked", func(p *Proc) {
			defer func() { cleanedUp++ }()
			p.Park() // nothing ever unparks it
		})
	}
	finished := false
	sim.Spawn("finisher", func(p *Proc) { finished = true })
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
	if cleanedUp != 3 {
		t.Fatalf("deferred cleanup ran %d times, want 3", cleanedUp)
	}
	if sim.Shutdown() != 0 {
		t.Fatal("second Shutdown found processes")
	}
}
