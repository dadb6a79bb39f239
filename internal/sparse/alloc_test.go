package sparse_test

// The per-iteration kernels must be allocation-free after their first
// call: steady-state allocations would put the garbage collector inside the
// measured loop and skew every native wall-clock cell. TestMain runs these
// on both kernel paths, like the rest of the suite.

import (
	"testing"

	"aiac/internal/problems"
)

func TestRowRangeMulVecAllocs(t *testing.T) {
	prob := problems.NewLinear(4000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(8)
	x := prob.InitialVector()
	lo, hi := bounds[0], bounds[1]
	dst := make([]float64, hi-lo)
	if n := testing.AllocsPerRun(50, func() {
		prob.A.RowRangeMulVec(lo, hi, dst, x)
	}); n != 0 {
		t.Errorf("RowRangeMulVec allocates %.0f per call; want 0", n)
	}
}

func TestGradientStepAllocs(t *testing.T) {
	prob := problems.NewLinear(4000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(8)
	x := prob.InitialVector()
	prob.Update(0, bounds, x) // warm-up builds the rank's scratch
	if n := testing.AllocsPerRun(50, func() {
		prob.Update(0, bounds, x)
	}); n != 0 {
		t.Errorf("fused gradient step allocates %.0f per call; want 0", n)
	}
}

// The multi-tile deferred-write path of GradientStep (blocks larger than
// one cache tile) must be allocation-free too — it is what paper-scale
// blocks execute.
func TestGradientStepTiledAllocs(t *testing.T) {
	prob := problems.NewLinear(40000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(4) // 10000-row blocks: several tiles
	x := prob.InitialVector()
	prob.Update(0, bounds, x)
	if n := testing.AllocsPerRun(20, func() {
		prob.Update(0, bounds, x)
	}); n != 0 {
		t.Errorf("tiled gradient step allocates %.0f per call; want 0", n)
	}
}
