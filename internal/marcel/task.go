package marcel

import (
	"time"

	"aiac/internal/des"
)

// Continuation forms of the CPU primitives, for continuation-backed
// processes (des.SpawnTask). Each mirrors its blocking counterpart
// exactly: the same fast paths run the continuation synchronously where
// the blocking form returns without yielding, and the same enqueue /
// dispatch / preempt decisions fire in the same order otherwise, so a
// task-based program allocates the identical event sequence as its
// goroutine twin. Completion goes through the shared complete() →
// Unpark path, which resumes both process kinds.

// UseK is the continuation form of Use: k runs once p has consumed d of
// CPU time. UseK(p, 0, k) runs k synchronously, exactly as Use(p, 0)
// returns without an event.
func (c *CPU) UseK(p *des.Proc, d des.Time, k func()) {
	if d < 0 {
		panic("marcel: negative CPU use")
	}
	if d == 0 {
		k()
		return
	}
	if c.load > 1 {
		d = des.Time(float64(d) * c.load)
	}
	c.submit(p, d)
	p.ParkK(k) // completion unparks
}

// ComputeK is the continuation form of Compute.
func (c *CPU) ComputeK(p *des.Proc, flops float64, k func()) {
	if flops <= 0 {
		k()
		return
	}
	d := des.Time(flops / (c.SpeedMFlops * 1e6) * float64(time.Second))
	if d <= 0 {
		d = time.Nanosecond
	}
	c.UseK(p, d, k)
}

// SpawnTask starts a new continuation-backed thread on this node,
// charging the same thread-creation cost as Spawn before body runs.
func (c *CPU) SpawnTask(name string, body func(p *des.Proc)) *des.Proc {
	return c.sim.SpawnTask(name, func(p *des.Proc) {
		if c.SpawnCost > 0 {
			c.UseK(p, c.SpawnCost, func() { body(p) })
			return
		}
		body(p)
	})
}
