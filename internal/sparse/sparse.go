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
//
// # Assembly
//
// NewSystem's bits are a contract: every band, b and xTrue equal those of
// the original row loop (kernels.AssembleBaseline, whose n-long bands
// hold the same runs padded with zeros) for every shape and seed, because
// the recorded virtual-time results of every linear cell rest on them. It
// draws its uniforms from math/rand's own generator without going through
// the Source: math/rand (v1) is an additive lagged-Fibonacci generator
// whose 607-word register, once 607 outputs have been drawn, holds
// exactly the last 607 outputs, so every later output is
// x[n] = x[n−607] + x[n−273] mod 2⁶⁴, computed here in batches
// (assemble.go). TestUniformsMatchMathRand pins that against math/rand
// itself. The content checksums problems.Cache compares (SystemSum,
// Fingerprint) are eight-lane FNV-1a, internal to one process and never
// persisted (checksum.go).
package sparse

import (
	"fmt"
	"math"
)

// DIA is a sparse matrix in diagonal storage. Band k, at offset
// o = Offsets[k], stores only the rows it covers, [max(0,−o), min(n,n−o)):
//
//	Diags[k][i−max(0,−o)] = A[i][i+o]
//
// so it holds n−|o| entries and no padding. Offsets[0] is always 0 (the
// main diagonal, n entries). A band of any other length makes the first
// kernel call panic rather than be misread.
type DIA struct {
	N       int
	Offsets []int
	Diags   [][]float64
}

// NNZ returns the number of stored non-zero positions.
func (a *DIA) NNZ() int { return bandNNZ(a.N, a.Offsets) }

// bandNNZ is the number of in-range positions of bands at the given
// offsets of an n×n matrix.
func bandNNZ(n int, offsets []int) int {
	nnz := 0
	for _, o := range offsets {
		nnz += bandLen(n, o)
	}
	return nnz
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// bandRows is the row range [rlo,rhi) over which the band at offset o
// stays inside an n×n matrix: the rows the band stores.
func bandRows(n, o int) (rlo, rhi int) {
	return max(0, -o), min(n, n-o)
}

// bandLen is the stored length of the band at offset o: the n−|o| rows it
// covers, none if it misses the matrix.
func bandLen(n, o int) int { return max(0, n-abs(o)) }

// checkLayout panics unless every band has the length it covers.
func (a *DIA) checkLayout() {
	for k, o := range a.Offsets {
		if len(a.Diags[k]) != bandLen(a.N, o) {
			a.badBand(k)
		}
	}
}

// badBand panics naming band k, whose length is not bandLen's.
func (a *DIA) badBand(k int) {
	o := a.Offsets[k]
	panic(fmt.Sprintf("sparse: band %d (offset %d) of an n=%d DIA holds %d entries, want n−|o| = %d: a band stores only the rows it covers",
		k, o, a.N, len(a.Diags[k]), bandLen(a.N, o)))
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
// band adds the run of its rows inside [lo,hi) with one mulAdd (band.go);
// each band's length is checked first, whether or not it meets the range.
// Per-element contributions stay in ascending-diagonal order, each product
// rounded before its add, so the result is bit-identical to the naive
// k-outer reference on both kernel paths — internal/sparse/kernels holds the
// frozen reference and KERNELS.md the measured ladder.
//
//lint:hotpath
func (a *DIA) RowRangeMulVec(lo, hi int, dst, x []float64) {
	if len(x) != a.N {
		panic("sparse: dimension mismatch in RowRangeMulVec")
	}
	a.rowRangeMulVec(lo, hi, dst, x, nil)
}

// rowRangeMulVec is RowRangeMulVec on a shifted x: band k reads column c
// at x[c−shift[k]], and a nil shift is all zeros (x is the whole vector).
//
//lint:hotpath
func (a *DIA) rowRangeMulVec(lo, hi int, dst, x []float64, shift []int) {
	if lo < 0 || hi > a.N || lo > hi {
		panic("sparse: bad row range")
	}
	if len(dst) < hi-lo {
		panic("sparse: dimension mismatch in RowRangeMulVec")
	}
	m := hi - lo
	if len(a.Diags[0]) != a.N {
		a.badBand(0)
	}
	kern.mul(dst[:m], a.Diags[0][lo:][:m], x[lo-shiftOf(shift, 0):][:m])
	for k := 1; k < len(a.Offsets); k++ {
		o, d := a.Offsets[k], a.Diags[k]
		blo, bhi := bandRows(a.N, o)
		if len(d) != bandLen(a.N, o) {
			a.badBand(k)
		}
		rlo, rhi := max(lo, blo), min(hi, bhi)
		if rhi <= rlo {
			continue
		}
		bm := rhi - rlo
		kern.mulAdd(dst[rlo-lo:][:bm], d[rlo-blo:][:bm], x[rlo+o-shiftOf(shift, k):][:bm])
	}
}

// shiftOf is band k's shift, 0 when there is none.
func shiftOf(shift []int, k int) int {
	if shift == nil {
		return 0
	}
	return shift[k]
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
// It is GradientStepShifted on the whole vector: every shift zero.
//
//lint:hotpath
func (a *DIA) GradientStep(lo, hi int, gamma float64, x, b, scratch []float64) (residual, flops float64) {
	if len(x) != a.N {
		panic("sparse: dimension mismatch in GradientStep")
	}
	return a.GradientStepShifted(lo, hi, gamma, x, nil, b, scratch)
}

// GradientStepShifted is GradientStep on a compact copy of the iterate:
// band k reads column c at x[c−shift[k]] (WindowShifts), so the rows'
// own values sit at x[lo−shift[0]:hi−shift[0]], the main diagonal's
// columns. A nil shift is all zeros: x is the whole vector. b stays
// indexed by row.
//
// Bit-identical to the two-pass reference (kernels.StepBaseline) on both
// kernel paths: the shift only moves where a band's run of x starts.
// Blocks that fit one tile — every default-sweep rank block does —
// accumulate A*x and then relax x in place (the accumulate has already
// consumed the old iterate). Larger blocks relax each tile while it is
// L1-hot, deferring the writes into scratch — a band may make any later
// row read x inside [lo,hi), so no x[i] is overwritten until every tile
// has accumulated — and publish the new values with one copy at the end.
//
//lint:hotpath
func (a *DIA) GradientStepShifted(lo, hi int, gamma float64, x []float64, shift []int, b, scratch []float64) (residual, flops float64) {
	rows := float64(hi - lo)
	flops = 2*float64(a.rowNNZ())*rows + 5*rows
	own := lo - shiftOf(shift, 0)
	if hi-lo <= gradientTileRows {
		ax := scratch[:hi-lo]
		a.rowRangeMulVec(lo, hi, ax, x, shift)
		xs := x[own:][:hi-lo]
		return kern.relax(xs, xs, b[lo:hi], ax, a.Diags[0][lo:hi], gamma, 0), flops
	}
	var maxd float64
	for tlo := lo; tlo < hi; tlo += gradientTileRows {
		thi := min(tlo+gradientTileRows, hi)
		nv := scratch[tlo-lo : thi-lo]
		a.rowRangeMulVec(tlo, thi, nv, x, shift)
		maxd = kern.relax(nv, x[own+tlo-lo:][:thi-tlo], b[tlo:thi], nv, a.Diags[0][tlo:thi], gamma, maxd)
	}
	copy(x[own:][:hi-lo], scratch[:hi-lo])
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
	var segs []Segment
	for _, o := range a.Offsets {
		clo, chi := max(lo+o, 0), min(hi+o, a.N)
		if clo < chi {
			segs = append(segs, Segment{clo, chi})
		}
	}
	return MergeSegments(segs)
}

// WindowShifts lays out a compact copy of x for rows [lo,hi): window's
// sorted, disjoint segments end to end, the first at index 0. It returns
// the shift of every band, so that band k reads column c at x[c−shift[k]]
// (GradientStepShifted). The columns a band reads over the rows must lie
// in one segment of window, as they do in ColumnsTouched(lo, hi)'s; a
// band that reads none of them gets the shift that puts its empty run at
// x[0], so an empty block steps on an empty window.
func (a *DIA) WindowShifts(lo, hi int, window []Segment) []int {
	shift := make([]int, len(a.Offsets))
	for k, o := range a.Offsets {
		clo, chi := max(lo+o, 0), min(hi+o, a.N)
		if clo >= chi {
			shift[k] = clo
			continue
		}
		at, found := 0, false
		for _, w := range window {
			if w.Lo <= clo && chi <= w.Hi {
				shift[k], found = w.Lo-at, true
				break
			}
			at += w.Len()
		}
		if !found {
			panic(fmt.Sprintf("sparse: band %d (offset %d) reads columns [%d,%d) for rows [%d,%d), in no one segment of the window %v", k, o, clo, chi, lo, hi, window))
		}
	}
	return shift
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
	a.checkLayout()
	var worst float64
	for i := 0; i < a.N; i++ {
		var off float64
		for k := 1; k < len(a.Offsets); k++ {
			if blo, bhi := bandRows(a.N, a.Offsets[k]); i >= blo && i < bhi {
				off += math.Abs(a.Diags[k][i-blo])
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
	a.checkLayout()
	m := make([][]float64, a.N)
	for i := range m {
		m[i] = make([]float64, a.N)
	}
	for k, o := range a.Offsets {
		blo, _ := bandRows(a.N, o)
		for j, v := range a.Diags[k] {
			m[blo+j][blo+j+o] = v
		}
	}
	return m
}
