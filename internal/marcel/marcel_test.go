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
	sim.SpawnTask("t", func(p *des.Proc) {
		cpu.UseK(p, 100*time.Millisecond, func() { done = p.Now() })
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
	sim.SpawnTask("t", func(p *des.Proc) {
		// 50 Mflop at 500 MFlops => 0.1 s
		cpu.ComputeK(p, 50e6, func() { done = p.Now() })
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
	sim.SpawnTask("a", func(p *des.Proc) {
		cpu.UseK(p, 100*time.Millisecond, func() { t1 = p.Now() })
	})
	sim.SpawnTask("b", func(p *des.Proc) {
		cpu.UseK(p, 100*time.Millisecond, func() { t2 = p.Now() })
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
	sim.SpawnTask("long", func(p *des.Proc) {
		cpu.UseK(p, 1*time.Second, func() {})
	})
	sim.SpawnTask("short", func(p *des.Proc) {
		p.SleepK(100*time.Millisecond, func() {
			cpu.UseK(p, 1*time.Millisecond, func() { shortDone = p.Now() })
		})
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
	sim.SpawnTask("victim", func(p *des.Proc) {
		cpu.UseK(p, 10*time.Millisecond, func() { victimDone = p.Now() })
	})
	// 20 hogs, one arriving every 5 ms, each wanting 20 ms: they pile on
	// LIFO and keep the victim at the back.
	for i := 0; i < 20; i++ {
		sim.SpawnTask("hog", func(p *des.Proc) {
			p.SleepK(des.Time(i+1)*5*time.Millisecond, func() {
				cpu.UseK(p, 20*time.Millisecond, func() {})
			})
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
	sim.SpawnTask("victim", func(p *des.Proc) {
		cpu.UseK(p, 10*time.Millisecond, func() { victimDone = p.Now() })
	})
	for i := 0; i < 20; i++ {
		sim.SpawnTask("hog", func(p *des.Proc) {
			p.SleepK(des.Time(i+1)*5*time.Millisecond, func() {
				cpu.UseK(p, 20*time.Millisecond, func() {})
			})
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
	cpu.SpawnTask("child", func(p *des.Proc) { started = p.Now() })
	sim.Run()
	if started != cpu.SpawnCost {
		t.Fatalf("child started at %v, want %v", started, cpu.SpawnCost)
	}
}

func TestUtilisation(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	sim.SpawnTask("t", func(p *des.Proc) {
		cpu.UseK(p, 50*time.Millisecond, func() {
			p.SleepK(50*time.Millisecond, func() {}) // idle
		})
	})
	sim.Run()
	if u := cpu.Utilisation(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

func TestZeroUseIsFree(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	ran := false
	sim.SpawnTask("t", func(p *des.Proc) {
		events := sim.Events()
		cpu.UseK(p, 0, func() { ran = true })
		if !ran || sim.Events() != events || p.Now() != 0 {
			t.Errorf("zero use: ran=%v inside the call, %d events, time %v", ran, sim.Events()-events, p.Now())
		}
	})
	sim.Run()
}

func TestNegativeUsePanics(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	sim.SpawnTask("t", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative use did not panic")
			}
		}()
		cpu.UseK(p, -time.Second, func() {})
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

func TestPolicyString(t *testing.T) {
	if Fair.String() != "fair" || Unfair.String() != "unfair" {
		t.Fatal("policy strings wrong")
	}
}

func TestBackgroundLoadScalesCPUUse(t *testing.T) {
	sim := des.New()
	c := NewCPU(sim, "cpu", 1000)
	var first, second des.Time
	var third des.Time
	sim.SpawnTask("worker", func(p *des.Proc) {
		t0 := p.Now()
		c.UseK(p, 10*time.Millisecond, func() {
			first = p.Now() - t0
			c.SetBackgroundLoad(3)
			t1 := p.Now()
			c.UseK(p, 10*time.Millisecond, func() {
				second = p.Now() - t1
				c.SetBackgroundLoad(1) // restore
				t2 := p.Now()
				c.UseK(p, 10*time.Millisecond, func() { third = p.Now() - t2 })
			})
		})
	})
	sim.Run()
	if third != first {
		t.Errorf("restored load: %v, want %v", third, first)
	}
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
		sim.SpawnTask(name, func(p *des.Proc) {
			p.SleepK(10*us, func() {
				if name == "c" {
					if len(cpu.free) != 1 || cpu.free[0] != aReq {
						t.Errorf("free list = %v; want A's released request", cpu.free)
					}
				}
				cpu.UseK(p, d, func() { done[name] = p.Now() })
			})
		})
	}
	sleeper("b", 5*us) // wake-ups queued before A's completion event
	sleeper("c", 3*us)
	sim.SpawnTask("a", func(p *des.Proc) {
		sim.After(0, func() { aReq = cpu.current })
		cpu.UseK(p, 10*us, func() { done["a"] = p.Now() })
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

// A charge resumed from a spin is the charge the thread would have
// submitted when the spin's period began: a newcomer preempts it after the
// time it has run, and both finish when they would have.
func TestResumeMatchesSubmit(t *testing.T) {
	finish := func(resume bool) (des.Time, des.Time, des.Time) {
		sim := des.New()
		cpu := NewCPU(sim, "n0", 1000)
		var owner, other des.Time
		var sp des.Spin
		sim.SpawnTask("owner", func(p *des.Proc) {
			p.SleepK(5*time.Millisecond, func() {
				done := func() { owner = p.Now() }
				if !resume {
					cpu.UseK(p, 10*time.Millisecond, done)
					return
				}
				sp.Start(sim, 10*time.Millisecond, 5, func() { t.Fatal("boundary entered") })
				cpu.Watch(func() { cpu.Resume(p, &sp) })
				p.ParkK(done)
			})
		})
		sim.SpawnTask("other", func(p *des.Proc) {
			p.SleepK(8*time.Millisecond, func() {
				cpu.UseK(p, 4*time.Millisecond, func() { other = p.Now() })
			})
		})
		sim.Run()
		return owner, other, cpu.BusyTime()
	}
	so, sn, sb := finish(false)
	ro, rn, rb := finish(true)
	if ro != so || rn != sn || rb != sb {
		t.Fatalf("resumed: owner %v, other %v, busy %v; submitted: %v, %v, %v", ro, rn, rb, so, sn, sb)
	}
}

// Watch fires once, before the change it reports takes effect.
func TestWatchFiresOnceFirst(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	calls := 0
	cpu.Watch(func() {
		calls++
		if cpu.BackgroundLoad() != 1 {
			t.Error("watch ran after the load changed")
		}
	})
	cpu.SetBackgroundLoad(2)
	cpu.SetBackgroundLoad(3)
	if calls != 1 {
		t.Fatalf("watch called %d times, want 1", calls)
	}
	if got, want := cpu.ChargeTime(1e6), 3*time.Millisecond; got != want {
		t.Fatalf("ChargeTime under load 3 = %v, want %v", got, want)
	}
}
