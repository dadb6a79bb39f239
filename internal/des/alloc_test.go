package des_test

// The simulator core under every simulated message and CPU charge (the
// event-queue ladder of DES.md): scheduling and running an event allocates
// nothing once the heap has grown — QueueHighWater's bookkeeping included —
// and a process wake-up is carried in the event itself, so sleeping and
// unparking cost no allocation beyond the continuation the caller built.

import (
	"testing"

	"aiac/internal/des"
)

func TestScheduleRunAllocs(t *testing.T) {
	sim := des.New()
	fired := 0
	tick := func() { fired++ }
	burst := func() {
		for i := 0; i < 256; i++ {
			sim.Schedule(sim.Now()+des.Time(i%7), tick)
		}
		sim.Run()
	}
	burst() // grows the heap to its working depth
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("256 Schedule+run pairs allocate %.0f; want 0", n)
	}
	if fired != 22*256 || sim.QueueHighWater() != 256 {
		t.Errorf("fired %d events at high water %d; want %d at 256", fired, sim.QueueHighWater(), 22*256)
	}
}

func TestSleepKUnparkAllocs(t *testing.T) {
	sim := des.New()
	const rounds = 100
	left := 0
	var sleeper, parker *des.Proc
	var sleepLoop, parkLoop func()
	sleepLoop = func() {
		if left == 0 {
			return
		}
		left--
		parker.Unpark()
		sleeper.SleepK(1, sleepLoop)
	}
	parkLoop = func() {
		if left > 0 {
			parker.ParkK(parkLoop)
		}
	}
	// run spawns the pair and plays n rounds; with n = 0 both tasks finish
	// at once, which leaves what spawning alone allocates: two Procs, their
	// body closures, the first continuations.
	run := func(n int) func() {
		return func() {
			left = n
			parker = sim.SpawnTask("parker", func(p *des.Proc) { parkLoop() })
			sleeper = sim.SpawnTask("sleeper", func(p *des.Proc) { p.SleepK(0, sleepLoop) })
			sim.Run()
		}
	}
	run(rounds)()
	spawn := testing.AllocsPerRun(20, run(0))
	if n := testing.AllocsPerRun(20, run(rounds)); n != spawn {
		t.Errorf("%d SleepK+Unpark rounds allocate %.0f beyond the %.0f of spawning; want 0", rounds, n-spawn, spawn)
	}
	if sim.LiveProcs() != 0 {
		t.Errorf("%d tasks left alive", sim.LiveProcs())
	}
}
