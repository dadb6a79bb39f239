package marcel

import (
	"fmt"
	"maps"
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

// starvedAt sets up the state a spin over a held charge starts from: A's
// 100µs charge is cut at 50µs by X's 10ms one, X runs a quantum, A
// finishes at 2.1ms and X is dispatched at that instant with 8ms left. at
// runs at 2.1ms in A's thread, in place of A's next charge.
func starvedAt(sim *des.Simulator, cpu *CPU, at func(p *des.Proc)) {
	sim.SpawnTask("a", func(p *des.Proc) {
		cpu.UseK(p, 100*time.Microsecond, func() { at(p) })
	})
	sim.SpawnTask("x", func(p *des.Proc) {
		p.SleepK(50*time.Microsecond, func() { cpu.UseK(p, 10*time.Millisecond, func() {}) })
	})
}

// Under Fair, a charge dispatched at the very instant a lone newcomer
// submits is preempted before it has run: it goes back to the queue with
// its remaining time whole and its slice's completion stale, and the
// newcomer's charge runs uncut.
func TestFairPreemptsChargeDispatchedThisInstant(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	var aDone des.Time
	starvedAt(sim, cpu, func(p *des.Proc) {
		x, busy := cpu.current, cpu.BusyTime()
		if p.Now() != 2100*time.Microsecond || x.proc.Name() != "x" || cpu.lastStart != p.Now() || x.remaining != 8*time.Millisecond {
			t.Fatalf("at %v: current %s since %v with %v left; want x dispatched now with 8ms", p.Now(), x.proc.Name(), cpu.lastStart, x.remaining)
		}
		cpu.UseK(p, 100*time.Microsecond, func() { aDone = p.Now() })
		if cpu.current.proc != p || cpu.queue.Len() != 1 || cpu.queue.Items()[0] != x {
			t.Fatalf("after the newcomer: current %s, queue %d; want a running, x queued", cpu.current.proc.Name(), cpu.queue.Len())
		}
		if x.remaining != 8*time.Millisecond || x.gen != 0 || cpu.BusyTime() != busy {
			t.Fatalf("preempted x: %v left, gen %d, busy %v → %v; want 8ms, 0, unchanged", x.remaining, x.gen, busy, cpu.BusyTime())
		}
	})
	sim.Run()
	if aDone != 2200*time.Microsecond {
		t.Fatalf("a done at %v, want 2.2ms (its charge uncut)", aDone)
	}
}

// RunsAlone holds on an idle CPU and over a charge dispatched this instant
// that a newcomer of d would preempt unrun: not with another charge
// waiting, not once the charge has run, not under Fair for a d longer than
// a quantum (the two would share the CPU slice by slice).
func TestRunsAlone(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, "n0", 1000)
	q := cpu.Quantum
	if !cpu.RunsAlone(10 * q) {
		t.Fatal("idle CPU: RunsAlone false")
	}
	starvedAt(sim, cpu, func(p *des.Proc) {
		if !cpu.RunsAlone(q) {
			t.Error("charge dispatched now, d = quantum: RunsAlone false")
		}
		if cpu.RunsAlone(q + 1) {
			t.Error("Fair, d > quantum: RunsAlone true")
		}
		cpu.Policy = Unfair
		if !cpu.RunsAlone(q + 1) {
			t.Error("Unfair, d > quantum: RunsAlone false")
		}
		cpu.Policy = Fair
		sim.SpawnTask("y", func(py *des.Proc) { cpu.UseK(py, time.Microsecond, func() {}) })
		p.SleepK(time.Microsecond, func() {
			if cpu.queue.Len() != 1 || cpu.RunsAlone(time.Microsecond) {
				t.Errorf("a charge waiting (%d queued): RunsAlone true", cpu.queue.Len())
			}
			p.SleepK(time.Microsecond, func() {
				if cpu.queue.Len() != 0 || cpu.lastStart >= p.Now() || cpu.RunsAlone(time.Microsecond) {
					t.Errorf("x has run since %v (%d queued): RunsAlone true", cpu.lastStart, cpu.queue.Len())
				}
			})
		})
	})
	sim.Run()
}

// A spin over a held charge, resumed mid-period, leaves the CPU as the
// per-period charges would have: A iterates 100µs charges over X's starved
// one, or holds X and spins from 2.1ms; a third charge at 2.45ms wakes the
// spin. The running charge, the queue, the busy time when the third charge
// arrives, and every completion must be the same.
func TestHoldResumeMatchesSubmit(t *testing.T) {
	type snapshot struct {
		cur       string
		remaining des.Time
		since     des.Time
		queue     string
		busy      des.Time
	}
	finish := func(spin bool) (snapshot, map[string]des.Time, des.Time) {
		sim := des.New()
		cpu := NewCPU(sim, "n0", 1000)
		done := map[string]des.Time{}
		var snap snapshot
		take := func() {
			snap = snapshot{cur: cpu.current.proc.Name(), remaining: cpu.current.remaining, since: cpu.lastStart, busy: cpu.BusyTime()}
			for _, r := range cpu.queue.Items() {
				snap.queue += fmt.Sprintf("%s:%v:%d ", r.proc.Name(), r.remaining, r.gen)
			}
		}
		const d = 100 * time.Microsecond
		var sp des.Spin
		starvedAt(sim, cpu, func(p *des.Proc) {
			iters := 1
			var iterate func()
			iterate = func() {
				if iters++; iters > 8 {
					done["a"] = p.Now()
					return
				}
				cpu.UseK(p, d, iterate)
			}
			if !spin {
				iterate()
				return
			}
			if !cpu.RunsAlone(d) {
				t.Fatal("RunsAlone false over x dispatched now")
			}
			cpu.Hold()
			sp.Start(sim, d, 10, func() { t.Fatal("boundary entered") })
			cpu.Watch(func() {
				_, _, n := sp.Lattice()
				iters += int(n) + 1
				cpu.Resume(p, &sp)
				take()
			})
			p.ParkK(iterate)
		})
		sim.SpawnTask("y", func(p *des.Proc) {
			p.SleepK(2450*time.Microsecond, func() {
				if !spin {
					take()
				}
				cpu.UseK(p, 30*time.Microsecond, func() { done["y"] = p.Now() })
			})
		})
		sim.Run()
		return snap, done, cpu.BusyTime()
	}
	ss, sd, sb := finish(false)
	rs, rd, rb := finish(true)
	if rs != ss || !maps.Equal(rd, sd) || rb != sb {
		t.Fatalf("held and resumed: %+v, done %v, busy %v\nper-period:         %+v, done %v, busy %v", rs, rd, rb, ss, sd, sb)
	}
	if ss.cur != "a" || ss.since != 2400*time.Microsecond || ss.queue != "x:8ms:0 " {
		t.Fatalf("per-period state at 2.45ms: %+v; want a running since 2.4ms over x's 8ms", ss)
	}
}
