package marcel

import (
	"time"

	"aiac/internal/des"
)

// How a thread (a des process) consumes the CPU. A charge parks the thread
// and hands the rest of its work over as the continuation k, which runs
// when the charge is paid (complete → Unpark); a charge of nothing runs k
// synchronously, with no event.

// UseK makes p consume d of CPU time on this processor, competing with
// other threads under the CPU's policy, then runs k. UseK(p, 0, k) runs k
// synchronously.
func (c *CPU) UseK(p *des.Proc, d des.Time, k func()) {
	if d < 0 {
		panic("marcel: negative CPU use")
	}
	if d == 0 {
		k()
		return
	}
	c.submit(p, c.loaded(d))
	p.ParkK(k) // completion unparks
}

// loaded stretches d by the background load.
func (c *CPU) loaded(d des.Time) des.Time {
	if c.load > 1 {
		return des.Time(float64(d) * c.load)
	}
	return d
}

// ComputeK makes p execute the given number of floating-point operations at
// this CPU's speed, then runs k.
func (c *CPU) ComputeK(p *des.Proc, flops float64, k func()) {
	if flops <= 0 {
		k()
		return
	}
	c.UseK(p, max(c.ComputeTime(flops), time.Nanosecond), k)
}

// ChargeTime returns the CPU time a ComputeK of flops > 0 issued now would
// request, background load included.
func (c *CPU) ChargeTime(flops float64) des.Time {
	return c.loaded(max(c.ComputeTime(flops), time.Nanosecond))
}
