package kernels

import (
	"math"
	"math/rand"
	"testing"

	"aiac/internal/sparse"
)

// edgeSystem is a hand-built matrix whose off-diagonals sit at the
// extreme offsets ±(n−1), so all but one row of each band clips away.
func edgeSystem(n int) (*sparse.DIA, []float64, []float64) {
	a := &sparse.DIA{N: n, Offsets: []int{0, n - 1, -(n - 1)}}
	a.Diags = make([][]float64, 3)
	for k := range a.Diags {
		a.Diags[k] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		a.Diags[0][i] = 2 + float64(i%5)
		a.Diags[1][i] = 0.5 // only row 0 in range
		a.Diags[2][i] = -.5 // only row n-1 in range
	}
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
		b[i] = float64(i%4) + 1
	}
	return a, b, x
}

// TestMatVecVariantsBitIdentical proves every matvec variant — the shipped
// DIA.RowRangeMulVec among them, on both of sparse's kernel paths —
// produces bit-for-bit the reference result on random shapes and ranges.
func TestMatVecVariantsBitIdentical(t *testing.T) {
	for _, v := range Variants() {
		if v.Kind != "matvec" {
			continue
		}
		onPath(t, v, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 300; trial++ {
				a, _, x := randSystem(rng, 401)
				lo, hi := randRange(rng, a.N)
				checkMatVec(t, v, a, lo, hi, x)
			}
			for _, n := range []int{2, 3, 17} {
				a, _, x := edgeSystem(n)
				for lo := 0; lo <= n; lo++ {
					for hi := lo; hi <= n; hi++ {
						checkMatVec(t, v, a, lo, hi, x)
					}
				}
			}
		})
	}
}

func checkMatVec(t *testing.T, v Variant, a *sparse.DIA, lo, hi int, x []float64) {
	t.Helper()
	if msg := matVecMismatch(v, a, lo, hi, x); msg != "" {
		t.Fatalf("%s: n=%d offsets=%v rows=[%d,%d): %s", v.Name, a.N, a.Offsets, lo, hi, msg)
	}
}

// TestStepVariantsBitIdentical proves every step variant — the shipped
// DIA.GradientStep among them, on both of sparse's kernel paths and both
// of its branches — leaves bit-for-bit the reference iterate and returns
// the identical residual and flop count.
func TestStepVariantsBitIdentical(t *testing.T) {
	for _, v := range Variants() {
		if v.Kind != "step" {
			continue
		}
		onPath(t, v, func(t *testing.T) {
			rng := rand.New(rand.NewSource(10))
			for trial := 0; trial < 300; trial++ {
				maxN := 401
				if trial%30 == 29 {
					maxN = 3 * stepTileRows
				}
				a, b, x := randSystem(rng, maxN)
				lo, hi := randRange(rng, a.N)
				gamma := 0.1 + rng.Float64()
				checkStep(t, v, a, lo, hi, gamma, x, b)
			}
			for _, n := range []int{2, 3, 17} {
				a, b, x := edgeSystem(n)
				for lo := 0; lo <= n; lo++ {
					for hi := lo; hi <= n; hi++ {
						checkStep(t, v, a, lo, hi, 0.9, x, b)
					}
				}
			}
		})
	}
}

func checkStep(t *testing.T, v Variant, a *sparse.DIA, lo, hi int, gamma float64, x, b []float64) {
	t.Helper()
	if msg := stepMismatch(v, a, lo, hi, gamma, x, b); msg != "" {
		t.Fatalf("%s: n=%d offsets=%v rows=[%d,%d): %s", v.Name, a.N, a.Offsets, lo, hi, msg)
	}
}

// TestStepVariantsConverge drives each step variant as a whole-matrix
// Jacobi-style relaxation and checks it actually converges to the known
// solution — guarding against a variant that is self-consistent with a
// broken baseline copy.
func TestStepVariantsConverge(t *testing.T) {
	a, b, xtrue := sparse.NewSystem(600, 9, 0.8, 42)
	for _, v := range Variants() {
		if v.Kind != "step" {
			continue
		}
		onPath(t, v, func(t *testing.T) {
			x := make([]float64, a.N)
			scratch := make([]float64, a.N)
			for it := 0; it < 600; it++ {
				res, _ := v.Step(a, 0, a.N, 1.0, x, b, scratch)
				if res < 1e-12 {
					break
				}
			}
			for i := range x {
				if math.Abs(x[i]-xtrue[i]) > 1e-8 {
					t.Fatalf("%s: x[%d]=%v want %v", v.Name, i, x[i], xtrue[i])
				}
			}
		})
	}
}
