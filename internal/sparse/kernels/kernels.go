// Package kernels holds the frozen references of the two numeric kernels
// every backend bottoms out in — the banded block matvec and the
// matvec+relaxation update (paper Equ. 4) — exactly as they stood before
// kernelization, on the layout they were written for: every band n long,
// A[i][i+o] at index i, zero on the rows the band does not cover
// (FullLength makes that copy of a shipped DIA, whose bands hold only
// their rows). Nothing here runs in production: sparse.DIA's
// RowRangeMulVec and GradientStep are what ships, on the AVX2 or the
// portable primitives of internal/sparse/band.go. The package's tests hold
// both of those paths bit-identical to these references and regenerate the
// measured ladder, KERNELS.md, where the rungs that lost on the way are
// recorded rows.
//
// Bit-identity ground rules (why every variant looks the way it does):
//
//   - Per-element accumulation must stay in ascending-diagonal order:
//     float addition does not associate, and the virtual-time results of
//     the whole benchmark suite are pinned to the reference trajectory.
//     Variants may reorder which rows they visit when, and may fuse
//     several diagonals into one pass, but for any single element the
//     contributions arrive in the same order as the reference.
//   - The update expression, including the division by the diagonal, is
//     kept verbatim. No reciprocal-multiply, no math.FMA: both change
//     rounding.
//   - A fused variant must not write x[i] before other rows read it
//     (band offsets reach anywhere in the block), so fused updates write
//     new values into scratch and publish them with one copy at the end.
package kernels

import (
	"math"

	"aiac/internal/sparse"
)

// FullLength returns a copy of a in the layout the frozen references
// read: band k n long, with A[i][i+o] at index i and zeros on the |o|
// rows the band does not cover.
func FullLength(a *sparse.DIA) *sparse.DIA {
	f := &sparse.DIA{N: a.N, Offsets: append([]int(nil), a.Offsets...), Diags: make([][]float64, len(a.Diags))}
	for k, o := range a.Offsets {
		f.Diags[k] = make([]float64, a.N)
		copy(f.Diags[k][max(0, -o):], a.Diags[k])
	}
	return f
}

// clipBand clips the row range [lo,hi) to the rows where diagonal offset
// o stays inside an n×n matrix. The result may be empty (rhi <= rlo).
//
//lint:hotpath
func clipBand(n, lo, hi, o int) (rlo, rhi int) {
	rlo, rhi = lo, hi
	if o > 0 && rhi > n-o {
		rhi = n - o
	}
	if o < 0 && rlo < -o {
		rlo = -o
	}
	return rlo, rhi
}

// MatVecBaseline is the frozen pre-kernelization RowRangeMulVec body:
// zero-fill dst, then one clipped accumulation pass per diagonal.
//
//lint:hotpath
func MatVecBaseline(a *sparse.DIA, lo, hi int, dst, x []float64) {
	for i := range dst[:hi-lo] {
		dst[i] = 0
	}
	for k, o := range a.Offsets {
		d := a.Diags[k]
		rlo, rhi := clipBand(a.N, lo, hi, o)
		for i := rlo; i < rhi; i++ {
			dst[i-lo] += d[i] * x[i+o]
		}
	}
}

// stepFlops is the modeled flop count shared by every step variant: two
// flops per stored band element plus five per row for the update. It is
// what the simulators charge, which is why host-time kernel work cannot
// move virtual time.
//
//lint:hotpath
func stepFlops(a *sparse.DIA, lo, hi int) float64 {
	rows := float64(hi - lo)
	return 2*float64(len(a.Offsets))*rows + 5*rows
}

// updateInPlace is the frozen reference update traversal: read the
// accumulated A*x from ax, write the relaxed values back into x[lo:hi),
// return the max-norm change.
//
//lint:hotpath
func updateInPlace(a *sparse.DIA, lo, hi int, gamma float64, x, b, ax []float64) float64 {
	var maxd float64
	for i := lo; i < hi; i++ {
		nv := x[i] + gamma*(b[i]-ax[i-lo])/a.Diags[0][i]
		if d := math.Abs(nv - x[i]); d > maxd {
			maxd = d
		}
		x[i] = nv
	}
	return maxd
}

// StepBaseline is the frozen pre-kernelization GradientStep: baseline
// matvec into scratch, then the separate update traversal.
//
//lint:hotpath
func StepBaseline(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	ax := scratch[:hi-lo]
	MatVecBaseline(a, lo, hi, ax, x)
	return updateInPlace(a, lo, hi, gamma, x, b, ax), stepFlops(a, lo, hi)
}
