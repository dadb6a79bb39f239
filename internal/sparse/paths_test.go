package sparse_test

// DIA.RowRangeMulVec and DIA.GradientStep against the frozen
// pre-kernelization references of internal/sparse/kernels, bit for bit.
// TestMain (band_test.go) runs the suite once per kernel path, so these
// hold the vector and the portable primitives alike.

import (
	"math"
	"math/rand"
	"testing"

	"aiac/internal/sparse"
	"aiac/internal/sparse/kernels"
)

// stepCase is one GradientStep call from a given state.
type stepCase struct {
	a      *sparse.DIA
	b, x   []float64
	lo, hi int
	gamma  float64
}

func newCase(rng *rand.Rand, n, nd, lo, hi int) stepCase {
	a, b, _ := sparse.NewSystem(n, nd, 0.85, rng.Int63())
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return stepCase{a: a, b: b, x: x, lo: lo, hi: hi, gamma: 0.1 + rng.Float64()}
}

// stepCases is the table: random small systems whose spread offsets leave
// every kind of band over a random row range — full, clipped at either
// end, empty — and blocks one row under, at and over GradientStep's
// 2048-row tile, which is where its in-place and its deferred-write branch
// meet, at the top, in the middle and at the bottom of the matrix.
func stepCases() []stepCase {
	rng := rand.New(rand.NewSource(15))
	var cases []stepCase
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(400)
		nd := min(1+rng.Intn(40), n-1)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		switch rng.Intn(5) {
		case 0:
			hi = lo
		case 1:
			lo, hi = 0, n
		}
		cases = append(cases, newCase(rng, n, nd, lo, hi))
	}
	for _, rows := range []int{2047, 2048, 2049, 2*2048 - 1, 2 * 2048, 2*2048 + 1} {
		n := 3*2048 + 77
		for _, lo := range []int{0, 1021, n - rows} {
			cases = append(cases, newCase(rng, n, 12, lo, lo+rows))
		}
	}
	return cases
}

func bitsDiffer(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, true
		}
	}
	return 0, false
}

func TestGradientStepMatchesBaseline(t *testing.T) {
	for _, c := range stepCases() {
		scratch := make([]float64, c.hi-c.lo)
		wantX := append([]float64(nil), c.x...)
		wantRes, wantFlops := kernels.StepBaseline(c.a, c.lo, c.hi, c.gamma, wantX, c.b, scratch)
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		gotX := append([]float64(nil), c.x...)
		res, flops := c.a.GradientStep(c.lo, c.hi, c.gamma, gotX, c.b, scratch)
		if i, bad := bitsDiffer(gotX, wantX); bad {
			t.Fatalf("%s: n=%d offsets=%v rows=[%d,%d): x[%d] = %x, baseline %x", sparse.KernelPath(),
				c.a.N, c.a.Offsets, c.lo, c.hi, i, math.Float64bits(gotX[i]), math.Float64bits(wantX[i]))
		}
		if math.Float64bits(res) != math.Float64bits(wantRes) || flops != wantFlops {
			t.Fatalf("%s: n=%d rows=[%d,%d): residual %v flops %v, baseline %v and %v", sparse.KernelPath(),
				c.a.N, c.lo, c.hi, res, flops, wantRes, wantFlops)
		}
	}
}

func TestRowRangeMulVecMatchesBaseline(t *testing.T) {
	for _, c := range stepCases() {
		want := make([]float64, c.hi-c.lo)
		kernels.MatVecBaseline(c.a, c.lo, c.hi, want, c.x)
		got := make([]float64, c.hi-c.lo)
		for i := range got {
			got[i] = math.NaN() // catch unwritten elements
		}
		c.a.RowRangeMulVec(c.lo, c.hi, got, c.x)
		if i, bad := bitsDiffer(got, want); bad {
			t.Fatalf("%s: n=%d offsets=%v rows=[%d,%d): element %d = %x, baseline %x", sparse.KernelPath(),
				c.a.N, c.a.Offsets, c.lo, c.hi, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
