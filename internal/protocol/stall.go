package protocol

import "sync/atomic"

// StallGuard is the protocol's no-progress stall detector for drivers
// whose clock cannot stop on its own. The simulated engine detects a stall
// structurally — the event queue drains with ranks still blocked — but a
// wall-clock run whose synchronous exchange lost a message would simply
// hang. Ranks call Tick after every completed iteration; a watchdog polls
// Stalled at its chosen interval and aborts the run when a whole interval
// passed without a single tick anywhere.
//
// The guard is runtime-free: it owns no timer and spawns nothing. The
// polling cadence — and therefore what "stalled" means in seconds — belongs
// to the driver.
type StallGuard struct {
	ticks atomic.Int64
	last  int64
}

// Tick records one completed iteration. Safe from any goroutine.
func (g *StallGuard) Tick() { g.ticks.Add(1) }

// Stalled reports whether no Tick happened since the previous Stalled
// call. The first call observes the interval since construction. Only the
// watchdog goroutine may call it (the baseline is not synchronized).
func (g *StallGuard) Stalled() bool {
	now := g.ticks.Load()
	stalled := now == g.last
	g.last = now
	return stalled
}
