package marcel

import (
	"testing"
	"time"

	"aiac/internal/des"
)

func TestSingleThreadRunsToCompletion(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	var done des.Time
	sim.Spawn("t", func(p *des.Proc) {
		cpu.Use(p, 100*time.Millisecond)
		done = p.Now()
	})
	sim.Run()
	if done != 100*time.Millisecond {
		t.Fatalf("done at %v, want 100ms", done)
	}
	if cpu.BusyTime() != 100*time.Millisecond {
		t.Fatalf("busy = %v", cpu.BusyTime())
	}
}

func TestComputeChargesFlopsOverSpeed(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 500) // 500 MFlops
	var done des.Time
	sim.Spawn("t", func(p *des.Proc) {
		cpu.Compute(p, 50e6) // 50 Mflop at 500 MFlops => 0.1 s
		done = p.Now()
	})
	sim.Run()
	if done != 100*time.Millisecond {
		t.Fatalf("done at %v, want 100ms", done)
	}
}

func TestComputeTimeScalesWithSpeed(t *testing.T) {
	sim := des.New()
	slow := NewCPU(sim, "duron", 400)
	fast := NewCPU(sim, "p4", 1200)
	diff := slow.ComputeTime(1e6) - 3*fast.ComputeTime(1e6)
	if diff < -10 || diff > 10 { // nanosecond rounding only
		t.Fatalf("speed scaling wrong: %v vs %v", slow.ComputeTime(1e6), fast.ComputeTime(1e6))
	}
}

// Two equal threads under Fair must finish at (almost) the same time: the
// CPU is shared, so each takes ~2x its solo time.
func TestFairSharingTwoThreads(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	var t1, t2 des.Time
	sim.Spawn("a", func(p *des.Proc) {
		cpu.Use(p, 100*time.Millisecond)
		t1 = p.Now()
	})
	sim.Spawn("b", func(p *des.Proc) {
		cpu.Use(p, 100*time.Millisecond)
		t2 = p.Now()
	})
	sim.Run()
	for _, ti := range []des.Time{t1, t2} {
		if ti < 198*time.Millisecond || ti > 202*time.Millisecond {
			t.Fatalf("finish times %v, %v; want both ~200ms", t1, t2)
		}
	}
}

// A short request arriving mid-way through a long one must not wait for the
// long one to finish under Fair (preemptive slicing).
func TestFairPreemptsLongRequest(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	var shortDone des.Time
	sim.Spawn("long", func(p *des.Proc) {
		cpu.Use(p, 1*time.Second)
	})
	sim.Spawn("short", func(p *des.Proc) {
		p.Sleep(100 * time.Millisecond)
		cpu.Use(p, 1*time.Millisecond)
		shortDone = p.Now()
	})
	sim.Run()
	if shortDone > 120*time.Millisecond {
		t.Fatalf("short request done at %v; fair scheduler should have sliced", shortDone)
	}
}

// Under Unfair (LIFO), a steady stream of newer requests starves the first
// thread: it finishes only after the stream stops.
func TestUnfairStarvation(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	cpu.Policy = Unfair
	var victimDone des.Time
	sim.Spawn("victim", func(p *des.Proc) {
		cpu.Use(p, 10*time.Millisecond)
		victimDone = p.Now()
	})
	// 20 hogs, one arriving every 5 ms, each wanting 20 ms: they pile on
	// LIFO and keep the victim at the back.
	for i := 0; i < 20; i++ {
		i := i
		sim.Spawn("hog", func(p *des.Proc) {
			p.Sleep(des.Time(i+1) * 5 * time.Millisecond)
			cpu.Use(p, 20*time.Millisecond)
		})
	}
	sim.Run()
	// Total work: 10ms + 20*20ms = 410ms. The victim must be among the
	// last to finish (well after its solo finish time of 10 ms).
	if victimDone < 300*time.Millisecond {
		t.Fatalf("victim done at %v; unfair scheduler should starve it", victimDone)
	}
}

// The same workload under Fair does not starve the victim.
func TestFairNoStarvation(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	var victimDone des.Time
	sim.Spawn("victim", func(p *des.Proc) {
		cpu.Use(p, 10*time.Millisecond)
		victimDone = p.Now()
	})
	for i := 0; i < 20; i++ {
		i := i
		sim.Spawn("hog", func(p *des.Proc) {
			p.Sleep(des.Time(i+1) * 5 * time.Millisecond)
			cpu.Use(p, 20*time.Millisecond)
		})
	}
	sim.Run()
	if victimDone > 60*time.Millisecond {
		t.Fatalf("victim done at %v under fair; should finish early", victimDone)
	}
}

func TestSpawnChargesCreationCost(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	var started des.Time
	cpu.Spawn("child", func(p *des.Proc) { started = p.Now() })
	sim.Run()
	if started != cpu.SpawnCost {
		t.Fatalf("child started at %v, want %v", started, cpu.SpawnCost)
	}
}

func TestUtilisation(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	sim.Spawn("t", func(p *des.Proc) {
		cpu.Use(p, 50*time.Millisecond)
		p.Sleep(50 * time.Millisecond) // idle
	})
	sim.Run()
	if u := cpu.Utilisation(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

func TestZeroUseIsFree(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	sim.Spawn("t", func(p *des.Proc) {
		cpu.Use(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero use advanced time to %v", p.Now())
		}
	})
	sim.Run()
}

func TestNegativeUsePanics(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	sim.Spawn("t", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative use did not panic")
			}
		}()
		cpu.Use(p, -time.Second)
	})
	sim.Run()
}

func TestBadSpeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero speed did not panic")
		}
	}()
	NewCPU(des.New(), "bad", 0)
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	sim := des.New()
	mu := NewMutex(sim)
	var order []string
	hold := func(name string, arrive, hold des.Time) {
		sim.Spawn(name, func(p *des.Proc) {
			p.Sleep(arrive)
			mu.Lock(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			mu.Unlock()
		})
	}
	hold("a", 0, 30*time.Millisecond)
	hold("b", 10*time.Millisecond, 10*time.Millisecond)
	hold("c", 20*time.Millisecond, 10*time.Millisecond)
	sim.Run()
	want := "[a+ a- b+ b- c+ c-]"
	if got := sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func sprint(v []string) string {
	out := "["
	for i, s := range v {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out + "]"
}

func TestMutexTryLock(t *testing.T) {
	sim := des.New()
	mu := NewMutex(sim)
	if !mu.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if mu.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	mu.Unlock()
	if !mu.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unlock of unheld mutex did not panic")
		}
	}()
	NewMutex(des.New()).Unlock()
}

func TestPolicyString(t *testing.T) {
	if Fair.String() != "fair" || Unfair.String() != "unfair" {
		t.Fatal("policy strings wrong")
	}
}

func TestBackgroundLoadScalesCPUUse(t *testing.T) {
	sim := des.New()
	c := NewCPU(sim, "cpu", 1000)
	var first, second des.Time
	sim.Spawn("worker", func(p *des.Proc) {
		t0 := p.Now()
		c.Use(p, 10*time.Millisecond)
		first = p.Now() - t0
		c.SetBackgroundLoad(3)
		t1 := p.Now()
		c.Use(p, 10*time.Millisecond)
		second = p.Now() - t1
		c.SetBackgroundLoad(1) // restore
		t2 := p.Now()
		c.Use(p, 10*time.Millisecond)
		if got := p.Now() - t2; got != first {
			t.Errorf("restored load: %v, want %v", got, first)
		}
	})
	sim.Run()
	if first != 10*time.Millisecond {
		t.Fatalf("unloaded use took %v", first)
	}
	if second != 30*time.Millisecond {
		t.Fatalf("3x-loaded use took %v, want 30ms", second)
	}
	if c.BackgroundLoad() != 1 {
		t.Fatalf("BackgroundLoad() = %v", c.BackgroundLoad())
	}
}

// A completion event left behind by a preempted slice may fire after its
// request was completed, recycled and dispatched again for another thread:
// it must not end that thread's slice. A finishes through the preempt path
// at t=10µs with its completion event still queued at that instant; C's
// charge reuses A's request before the stale event fires.
func TestStaleCompletionIgnoresRecycledRequest(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	const us = time.Microsecond
	done := map[string]des.Time{}
	var aReq *request
	sleeper := func(name string, d des.Time) {
		sim.Spawn(name, func(p *des.Proc) {
			p.Sleep(10 * us)
			if name == "c" {
				if len(cpu.free) != 1 || cpu.free[0] != aReq {
					t.Errorf("free list = %v; want A's released request", cpu.free)
				}
			}
			cpu.Use(p, d)
			done[name] = p.Now()
		})
	}
	sleeper("b", 5*us) // wake-ups queued before A's completion event
	sleeper("c", 3*us)
	sim.Spawn("a", func(p *des.Proc) {
		sim.After(0, func() { aReq = cpu.current })
		cpu.Use(p, 10*us)
		done["a"] = p.Now()
	})
	sim.Run()
	if cpu.current != nil || len(cpu.free) == 0 {
		t.Fatalf("CPU not idle at the end: current %v, %d free", cpu.current, len(cpu.free))
	}
	want := map[string]des.Time{"a": 10 * us, "c": 13 * us, "b": 18 * us}
	for name, at := range want {
		if done[name] != at {
			t.Errorf("%s done at %v, want %v", name, done[name], at)
		}
	}
	if cpu.BusyTime() != 18*us {
		t.Errorf("busy = %v, want 18µs", cpu.BusyTime())
	}
	for _, r := range cpu.free {
		if r.proc != nil || r.gen != 0 {
			t.Errorf("released request still names a thread or a generation: %+v", r)
		}
	}
}
