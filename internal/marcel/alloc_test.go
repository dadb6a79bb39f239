package marcel

import (
	"testing"

	"aiac/internal/des"
	"aiac/internal/ladder"
)

// One CPU charge on a lone task allocates nothing: the request is recycled
// through the CPU's free list and is itself the target of its
// slice-completion event, and the unpark is an event in the now-lane.
func TestComputeKAllocs(t *testing.T) {
	const charges = 100
	if n := computeKAllocs(charges); n != 0 {
		t.Errorf("%d ComputeK charges allocate %.0f; want 0", charges, n)
	}
}

// computeKAllocs returns what a run of `charges` CPU charges on a lone,
// warmed-up task allocates.
func computeKAllocs(charges int) float64 {
	sim := des.New()
	cpu := NewCPU(sim, "pin", 1000)
	var task *des.Proc
	left := 0
	var loop func()
	loop = func() {
		if left == 0 {
			task.ParkK(loop)
			return
		}
		left--
		cpu.ComputeK(task, 1e4, loop)
	}
	task = sim.SpawnTask("charge", func(p *des.Proc) { loop() })
	sim.Run()
	return testing.AllocsPerRun(20, func() {
		left = charges
		task.Unpark()
		sim.Run()
	})
}

// TestLadderMsgPath measures MSGPATH.md's "ComputeK allocs" of the shipped
// row: one CPU charge on a lone task.
func TestLadderMsgPath(t *testing.T) {
	const shipped = "recycled handlers, wires and messages"
	doc := ladder.Open(t, ladder.Spec{Doc: "MSGPATH.md", Tables: []ladder.Table{{
		Anchor: "| rung |", Key: []string{"rung"}, Rows: []string{shipped}, Cols: []string{"ComputeK allocs"},
	}}})
	if !ladder.Gate(t) {
		return
	}
	doc.Table("| rung |").Setf(shipped, "ComputeK allocs", "%.0f", computeKAllocs(100)/100)
	doc.Finish()
}
