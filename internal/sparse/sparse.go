// Package sparse implements the banded (diagonal-storage) sparse matrices
// of the paper's first test problem: a square sparse matrix whose non-zero
// values sit on the main diagonal plus a fixed number of sub-diagonals
// (Table 1: 30 sub-diagonals on a 2,000,000² matrix), constructed so the
// Jacobi/fixed-step-gradient iteration matrix has spectral radius below one
// (§5.1: "the sparse matrix is designed to have a spectral radius less than
// one").
//
// # Kernels
//
// DIA's two hot kernels, RowRangeMulVec and GradientStep, are built from
// three primitives over equal-length runs (band.go): mul
// (out[j] = d[j]*x[j]), mulAdd (acc[j] += d[j]*x[j]) and relax (the
// update of Equ. 4 and its max-norm residual in one pass). Each has a
// pure-Go form — the portable path, the only one off amd64 — and an AVX2
// form in Go assembly (band_amd64.s) that applies the same IEEE operations
// in the same order four doubles at a time: a multiply then an add, never
// an FMA; a true division; a max that a NaN never enters. The two paths
// therefore agree bit for bit — iterate, residual and modeled flops — and
// both agree with the frozen pre-kernelization references in
// internal/sparse/kernels, whose tests also keep the measured ladder
// (KERNELS.md). The path is chosen once at start-up from CPUID/XGETBV;
// KernelPath reports it; nothing but a test (PinPortable) overrides it.
package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// DIA is a sparse matrix in diagonal storage: for each stored offset o,
// Diag[k][i] holds A[i][i+o] (zero where i+o falls outside the matrix).
// Offsets[0] is always 0 (the main diagonal).
type DIA struct {
	N       int
	Offsets []int
	Diags   [][]float64
}

// NewSystem generates the paper's test system: an n×n matrix with the main
// diagonal plus numDiags off-diagonals whose offsets are spread over the
// full bandwidth of the matrix (so that, once rows are distributed over
// processors, the dependency graph is all-to-all, matching §5.1's "the
// communication scheme is all to all according to data dependencies").
//
// The matrix is made strictly diagonally dominant with dominance ratio rho
// (< 1): sum_j != i |a_ij| = rho * |a_ii|, which bounds the spectral radius
// of the Jacobi iteration matrix by rho and guarantees convergence of both
// the synchronous and the asynchronous iterations (El Tarazi's condition).
// The right-hand side is chosen so the exact solution is known
// (x*_i = 1 + i mod 3), letting tests verify convergence to the true
// solution, not merely stagnation.
//
// The returned matrix and vectors are immutable by convention: every
// solver in this repository only reads them (the kernels below write
// exclusively into caller-owned destination and scratch slices), which is
// what lets problems.Cache share one assembled system read-only across
// concurrent experiment cells. Code that needs a modified system must
// build its own.
func NewSystem(n, numDiags int, rho float64, seed int64) (*DIA, []float64, []float64) {
	if n < 2 || numDiags < 1 || numDiags >= n {
		panic(fmt.Sprintf("sparse: bad system shape n=%d numDiags=%d", n, numDiags))
	}
	if rho <= 0 || rho >= 1 {
		panic("sparse: dominance ratio must be in (0,1)")
	}
	rng := rand.New(rand.NewSource(seed))
	offsets := spreadOffsets(n, numDiags, rng)
	a := &DIA{N: n, Offsets: append([]int{0}, offsets...)}
	a.Diags = make([][]float64, len(a.Offsets))
	for k := range a.Diags {
		a.Diags[k] = make([]float64, n)
	}
	// Random off-diagonal values in [0.5, 1.5), alternating sign.
	for k := 1; k < len(a.Offsets); k++ {
		o := a.Offsets[k]
		sign := 1.0
		if k%2 == 0 {
			sign = -1
		}
		for i := 0; i < n; i++ {
			j := i + o
			if j < 0 || j >= n {
				continue
			}
			a.Diags[k][i] = sign * (0.5 + rng.Float64())
		}
	}
	// Diagonal: row sum of |off-diagonals| divided by rho.
	for i := 0; i < n; i++ {
		var rowSum float64
		for k := 1; k < len(a.Offsets); k++ {
			rowSum += math.Abs(a.Diags[k][i])
		}
		if rowSum == 0 {
			rowSum = 1 // isolated row: keep the diagonal well-scaled
		}
		a.Diags[0][i] = rowSum / rho
	}
	// b = A * x_true.
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(1 + i%3)
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	return a, b, xTrue
}

// spreadOffsets picks numDiags distinct non-zero offsets covering both
// sides of the diagonal and reaching across the matrix width, so a row
// block owned by one processor depends on most other blocks.
func spreadOffsets(n, numDiags int, rng *rand.Rand) []int {
	seen := map[int]bool{0: true}
	var offs []int
	// Half the offsets on a deterministic spread, half random, alternating
	// sign: this keeps the dependency pattern reproducible per seed while
	// covering the full width.
	for len(offs) < numDiags {
		var o int
		switch len(offs) % 2 {
		case 0: // deterministic spread across the width
			step := (n - 1) / (numDiags + 1)
			if step == 0 {
				step = 1
			}
			o = (len(offs)/2 + 1) * step
			if len(offs)%4 == 2 {
				o = -o
			}
		default: // random
			o = 1 + rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				o = -o
			}
		}
		for seen[o] {
			o++
			if o >= n {
				o = -(n - 1)
			}
			if o == 0 {
				o = 1
			}
		}
		seen[o] = true
		offs = append(offs, o)
	}
	return offs
}

// NNZ returns the number of stored non-zero positions.
func (a *DIA) NNZ() int { return bandNNZ(a.N, a.Offsets) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// MulVec computes dst = A*x. Flops: ~2*NNZ.
//
//lint:hotpath
func (a *DIA) MulVec(dst, x []float64) {
	if len(dst) != a.N || len(x) != a.N {
		panic("sparse: dimension mismatch in MulVec")
	}
	a.RowRangeMulVec(0, a.N, dst, x)
}

// RowRangeMulVec computes dst[i-lo] = (A*x)_i for i in [lo,hi), reading x
// at the columns the band touches. Flops: ~2 * nnz(rows lo..hi).
//
// The main diagonal initializes dst (no zero-fill pass) and every other
// band adds its clipped run with one mulAdd (band.go). Per-element
// contributions stay in ascending-diagonal order, each product rounded
// before its add, so the result is bit-identical to the naive k-outer
// reference on both kernel paths — internal/sparse/kernels holds the
// frozen reference and KERNELS.md the measured ladder.
//
//lint:hotpath
func (a *DIA) RowRangeMulVec(lo, hi int, dst, x []float64) {
	if lo < 0 || hi > a.N || lo > hi {
		panic("sparse: bad row range")
	}
	if len(dst) < hi-lo || len(x) != a.N {
		panic("sparse: dimension mismatch in RowRangeMulVec")
	}
	m := hi - lo
	kern.mul(dst[:m], a.Diags[0][lo:][:m], x[lo:][:m])
	for k := 1; k < len(a.Offsets); k++ {
		o := a.Offsets[k]
		rlo, rhi := lo, hi
		if o > 0 && rhi > a.N-o {
			rhi = a.N - o
		}
		if o < 0 && rlo < -o {
			rlo = -o
		}
		if rhi <= rlo {
			continue
		}
		bm := rhi - rlo
		kern.mulAdd(dst[rlo-lo:][:bm], a.Diags[k][rlo:][:bm], x[rlo+o:][:bm])
	}
}

// gradientTileRows is the row-tile granule of the fused GradientStep:
// 2048 rows of accumulated A*x are 16KB, small enough that the fused
// update revisits them while still L1-resident.
const gradientTileRows = 2048

// GradientStep performs one fixed-step gradient-descent update (Equ. 4 of
// the paper) on rows [lo,hi):
//
//	x_i <- x_i + gamma * (b_i - (A x)_i) / a_ii
//
// reading whatever values x currently holds outside [lo,hi) (asynchronous
// semantics: stale ghost data is used as-is). It writes the new values into
// x[lo:hi), returns the max-norm of the change (the local residual of
// Equ. 6) and the flop count. scratch must have at least hi-lo capacity.
//
// Bit-identical to the two-pass reference (kernels.StepBaseline) on both
// kernel paths. Blocks that fit one tile — every default-sweep rank block
// does — accumulate A*x with RowRangeMulVec and then relax x in place (the
// accumulate has already consumed the old iterate). Larger blocks relax
// each tile while it is L1-hot, deferring the writes into scratch — a band
// may make any later row read x inside [lo,hi), so no x[i] is overwritten
// until every tile has accumulated — and publish the new values with one
// copy at the end.
//
//lint:hotpath
func (a *DIA) GradientStep(lo, hi int, gamma float64, x, b, scratch []float64) (residual, flops float64) {
	rows := float64(hi - lo)
	flops = 2*float64(a.rowNNZ())*rows + 5*rows
	if hi-lo <= gradientTileRows {
		ax := scratch[:hi-lo]
		a.RowRangeMulVec(lo, hi, ax, x)
		xs := x[lo:hi]
		return kern.relax(xs, xs, b[lo:hi], ax, a.Diags[0][lo:hi], gamma, 0), flops
	}
	var maxd float64
	for tlo := lo; tlo < hi; tlo += gradientTileRows {
		thi := min(tlo+gradientTileRows, hi)
		nv := scratch[tlo-lo : thi-lo]
		a.RowRangeMulVec(tlo, thi, nv, x)
		maxd = kern.relax(nv, x[tlo:thi], b[tlo:thi], nv, a.Diags[0][tlo:thi], gamma, maxd)
	}
	copy(x[lo:hi], scratch[:hi-lo])
	return maxd, flops
}

// rowNNZ returns the nominal non-zeros per row (band count), used for flop
// estimates.
func (a *DIA) rowNNZ() int { return len(a.Offsets) }

// Segment is a half-open index interval [Lo,Hi) of the global vector.
type Segment struct{ Lo, Hi int }

// Len returns the segment length.
func (s Segment) Len() int { return s.Hi - s.Lo }

// ColumnsTouched returns the set of global column intervals read when
// computing rows [lo,hi), merged and clipped to [0,n). This drives the
// dependency lists of §4.3 ("each processor needs to construct the list of
// its data dependencies from other processors").
func (a *DIA) ColumnsTouched(lo, hi int) []Segment {
	return columnsTouched(a.N, a.Offsets, lo, hi)
}

// MergeSegments sorts and merges overlapping/adjacent segments.
func MergeSegments(segs []Segment) []Segment {
	if len(segs) == 0 {
		return nil
	}
	sorted := make([]Segment, len(segs))
	copy(sorted, segs)
	// Insertion sort: segment lists are short (≤ band count).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Lo < sorted[j-1].Lo; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:1]
	for _, s := range sorted[1:] {
		last := &out[len(out)-1]
		if s.Lo <= last.Hi {
			if s.Hi > last.Hi {
				last.Hi = s.Hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Partition splits n rows into nparts near-equal contiguous blocks and
// returns the nparts+1 boundaries.
func Partition(n, nparts int) []int {
	if nparts < 1 || n < nparts {
		panic(fmt.Sprintf("sparse: cannot partition %d rows into %d parts", n, nparts))
	}
	bounds := make([]int, nparts+1)
	for i := 0; i <= nparts; i++ {
		bounds[i] = i * n / nparts
	}
	return bounds
}

// OwnerOf returns the part owning global index i under bounds.
func OwnerOf(bounds []int, i int) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if bounds[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// JacobiSpectralBound returns max_i sum_{j!=i} |a_ij| / |a_ii|, an upper
// bound on the spectral radius of the Jacobi iteration matrix.
func (a *DIA) JacobiSpectralBound() float64 {
	var worst float64
	for i := 0; i < a.N; i++ {
		var off float64
		for k := 1; k < len(a.Offsets); k++ {
			o := a.Offsets[k]
			if j := i + o; j >= 0 && j < a.N {
				off += math.Abs(a.Diags[k][i])
			}
		}
		if r := off / math.Abs(a.Diags[0][i]); r > worst {
			worst = r
		}
	}
	return worst
}

// Dense returns the dense form of the matrix. For tests on tiny systems.
func (a *DIA) Dense() [][]float64 {
	m := make([][]float64, a.N)
	for i := range m {
		m[i] = make([]float64, a.N)
	}
	for k, o := range a.Offsets {
		for i := 0; i < a.N; i++ {
			if j := i + o; j >= 0 && j < a.N {
				m[i][j] = a.Diags[k][i]
			}
		}
	}
	return m
}
