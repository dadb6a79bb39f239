package sparse_test

// DIA.RowRangeMulVec and DIA.GradientStep against the frozen
// pre-kernelization references of internal/sparse/kernels, bit for bit,
// the references reading the full-length copy of each system
// (kernels.FullLength). TestMain (band_test.go) runs the suite once per
// kernel path, so these hold the vector and the portable primitives alike.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aiac/internal/sparse"
	"aiac/internal/sparse/kernels"
)

// stepCase is one GradientStep call from a given state.
type stepCase struct {
	a, full *sparse.DIA // the system, and its full-length copy
	b, x    []float64
	lo, hi  int
	gamma   float64
}

func newCase(rng *rand.Rand, n, nd, lo, hi int) stepCase {
	a, b, _, _ := sparse.NewSystemSum(n, nd, 0.85, rng.Int63())
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return stepCase{a: a, full: kernels.FullLength(a), b: b, x: x, lo: lo, hi: hi, gamma: 0.1 + rng.Float64()}
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
		wantRes, wantFlops := kernels.StepBaseline(c.full, c.lo, c.hi, c.gamma, wantX, c.b, scratch)
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
		kernels.MatVecBaseline(c.full, c.lo, c.hi, want, c.x)
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

// FuzzGradientStepPaths runs one GradientStep on the start-up path, on
// the portable one and as the frozen kernels.StepBaseline on the system's
// full-length copy, all from the same state — any system shape, row range
// (empty and one-row blocks among the seeds) and step, special values
// sprinkled into the iterate and the right-hand side on request. The two
// paths must agree bit for bit (NaN payloads aside). The baseline must
// agree in value: it starts each row's sum from +0 where the kernels start
// from the diagonal's product, so a −0 product may come out +0 there, and
// only the sign of a zero may differ. A layout fault the two paths share
// shows against the baseline. On each path, the block's windowed step —
// x gathered through ColumnsTouched's window, the compact copy stepped
// with its shifts, scattered back — must equal the full-vector step bit
// for bit.
func FuzzGradientStepPaths(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(12), uint16(0), uint16(400), 1.0, false)
	f.Add(int64(2), uint16(5000), uint8(30), uint16(17), uint16(4500), 0.7, false)
	f.Add(int64(3), uint16(2300), uint8(3), uint16(100), uint16(2148), 0.9, true)
	f.Add(int64(4), uint16(33), uint8(40), uint16(5), uint16(5), 1.3, true)
	f.Add(int64(5), uint16(900), uint8(17), uint16(450), uint16(451), 0.8, false)
	f.Add(int64(6), uint16(64), uint8(9), uint16(0), uint16(1), 1.1, true)
	f.Add(int64(7), uint16(64), uint8(9), uint16(64), uint16(64), 0.6, false)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, nd8 uint8, lo16, hi16 uint16, gamma float64, special bool) {
		n := 2 + int(n16)%6000
		nd := 1 + int(nd8)%40
		if nd >= n {
			nd = n - 1
		}
		lo, hi := int(lo16)%(n+1), int(hi16)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b, _, _ := sparse.NewSystemSum(n, nd, 0.85, seed)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		sparse.Fill(rng, x, special)
		if special {
			b = append([]float64(nil), b...)
			for i := range b {
				if rng.Intn(16) == 0 {
					b[i] = sparse.Specials[rng.Intn(len(sparse.Specials))]
				}
			}
		}
		type outcome struct {
			x          []float64
			res, flops float64
		}
		run := func(step func(xk, scratch []float64) (float64, float64)) outcome {
			xk := append([]float64(nil), x...)
			res, flops := step(xk, make([]float64, hi-lo))
			return outcome{xk, res, flops}
		}
		win := a.ColumnsTouched(lo, hi)
		shift := a.WindowShifts(lo, hi, win)
		var paths, windowed [2]outcome
		for i, vector := range []bool{false, true} {
			sparse.OnPath(vector, func() {
				paths[i] = run(func(xk, scratch []float64) (float64, float64) {
					return a.GradientStep(lo, hi, gamma, xk, b, scratch)
				})
				windowed[i] = run(func(xk, scratch []float64) (float64, float64) {
					var compact []float64
					for _, w := range win {
						compact = append(compact, xk[w.Lo:w.Hi]...)
					}
					res, flops := a.GradientStepShifted(lo, hi, gamma, compact, shift, b, scratch)
					for _, w := range win {
						compact = compact[copy(xk[w.Lo:w.Hi], compact):]
					}
					return res, flops
				})
			})
		}
		full := kernels.FullLength(a)
		base := run(func(xk, scratch []float64) (float64, float64) {
			return kernels.StepBaseline(full, lo, hi, gamma, xk, b, scratch)
		})
		what := fmt.Sprintf("n=%d nd=%d rows=[%d,%d) gamma=%v", n, nd, lo, hi, gamma)
		for i, path := range []string{"portable", "start-up"} {
			full, w := paths[i], windowed[i]
			if j, bad := bitsDiffer(w.x, full.x); bad {
				t.Fatalf("%s: %s path: x[%d] = %x stepped through the window, %x on the whole vector", what, path, j, math.Float64bits(w.x[j]), math.Float64bits(full.x[j]))
			}
			if math.Float64bits(w.res) != math.Float64bits(full.res) || w.flops != full.flops {
				t.Fatalf("%s: %s path: residual %v flops %v through the window, %v and %v on the whole vector", what, path, w.res, w.flops, full.res, full.flops)
			}
		}
		portable, vector := paths[0], paths[1]
		for i := range x {
			if !sparse.Same(vector.x[i], portable.x[i]) {
				t.Fatalf("%s: x[%d] = %v on the start-up path, %v on the portable one", what, i, vector.x[i], portable.x[i])
			}
			if !sparse.Same(portable.x[i], base.x[i]) && portable.x[i] != base.x[i] {
				t.Fatalf("%s: x[%d] = %v, the frozen baseline %v", what, i, portable.x[i], base.x[i])
			}
		}
		if math.Float64bits(vector.res) != math.Float64bits(portable.res) || vector.flops != portable.flops {
			t.Fatalf("%s: residual %v flops %v on the start-up path, %v and %v on the portable one", what, vector.res, vector.flops, portable.res, portable.flops)
		}
		if portable.res != base.res || portable.flops != base.flops {
			t.Fatalf("%s: residual %v flops %v, the frozen baseline %v and %v", what, portable.res, portable.flops, base.res, base.flops)
		}
	})
}
