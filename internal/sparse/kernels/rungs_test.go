package kernels

// The ladder: every rung that was tried on the way to the shipped kernels,
// the no-wins included, kept so that KERNELS.md can be regenerated and
// every number in it re-checked. Only the frozen baselines (kernels.go) and
// sparse.DIA's own methods are non-test code; the rows marked shipped call
// those methods directly.

import (
	"math"
	"runtime"
	"sync"

	"aiac/internal/sparse"
)

// MatVec computes dst[i-lo] = (A*x)_i for i in [lo,hi).
type MatVec func(a *sparse.DIA, lo, hi int, dst, x []float64)

// Step performs one relaxation update on rows [lo,hi) of x, returning
// the max-norm residual and the modeled flop count.
type Step func(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (residual, flops float64)

// Variant is one measured kernel implementation.
type Variant struct {
	Name string
	Kind string // "matvec" or "step"
	Note string
	// Portable rows run with sparse's pure-Go primitives pinned
	// (sparse.PinPortable); the others on the path the process chose.
	Portable bool
	// NeedsAVX2 rows exist only where that path is the AVX2 one.
	NeedsAVX2 bool
	// Exactly one of MatVec / Step is set, matching Kind.
	MatVec MatVec
	Step   Step
}

func diaMatVec(a *sparse.DIA, lo, hi int, dst, x []float64) { a.RowRangeMulVec(lo, hi, dst, x) }

func diaStep(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	return a.GradientStep(lo, hi, gamma, x, b, scratch)
}

// Variants returns every kernel variant in table order. The first entry
// of each Kind is the frozen reference ("baseline") the others are
// validated and speedup-normalized against. Rows that need AVX2 are left
// out where the process runs the portable path.
func Variants() []Variant {
	all := []Variant{
		{Name: "matvec-baseline", Kind: "matvec", MatVec: MatVecBaseline,
			Note: "frozen pre-kernelization RowRangeMulVec: zero-fill pass, one clipped pass per diagonal"},
		{Name: "matvec-firstdiag", Kind: "matvec", MatVec: MatVecFirstDiag,
			Note: "main diagonal initializes dst, deleting the zero-fill pass"},
		{Name: "matvec-bce", Kind: "matvec", MatVec: MatVecBCE,
			Note: "firstdiag + operands re-sliced to one shared length so the compiler drops bounds checks"},
		{Name: "matvec-unroll4", Kind: "matvec", MatVec: diaMatVec, Portable: true,
			Note: "bce + 4-wide unroll of the accumulation loop; DIA.RowRangeMulVec on the portable primitives — shipped off amd64 and on amd64 without AVX2"},
		{Name: "matvec-fuse4", Kind: "matvec", MatVec: MatVecFuse4,
			Note: "bce + four diagonals per pass over their common row core (dst traffic /4) — no win: spread offsets leave the cores mostly empty"},
		{Name: "matvec-fuseactive", Kind: "matvec", MatVec: MatVecFuseActive,
			Note: "pure Go: consecutive bands that cover the whole row range accumulated in one pass (up to four), empty bands skipped, a partial band flushes the group"},
		{Name: "matvec-avx2", Kind: "matvec", MatVec: diaMatVec, NeedsAVX2: true,
			Note: "one VMULPD/VADDPD pass per band, four doubles per op, mul then add (no FMA); shipped as DIA.RowRangeMulVec where the CPU has AVX2"},
		{Name: "step-baseline", Kind: "step", Step: StepBaseline,
			Note: "frozen pre-kernelization GradientStep: baseline matvec into scratch, then a separate update traversal"},
		{Name: "step-firstdiag", Kind: "step", Step: StepFirstDiag,
			Note: "baseline update pass over the firstdiag matvec"},
		{Name: "step-unroll4", Kind: "step", Step: StepUnroll4, Portable: true,
			Note: "baseline update pass over the unroll4 matvec"},
		{Name: "step-fuse4", Kind: "step", Step: StepFuse4,
			Note: "baseline update pass over the fuse4 matvec"},
		{Name: "step-fused", Kind: "step", Step: diaStep, Portable: true,
			Note: "unroll4 accumulate + update+residual per L1-hot row tile, deferred write publishing x once; single-tile blocks update in place; DIA.GradientStep on the portable primitives"},
		{Name: "step-fuseactive", Kind: "step", Step: StepFuseActive,
			Note: "step-fused's tiling and pure-Go update over the fuseactive matvec"},
		{Name: "step-avx2", Kind: "step", Step: diaStep, NeedsAVX2: true,
			Note: "step-fused's tiling over the avx2 matvec, update+residual as one VSUBPD/VMULPD/VDIVPD/VADDPD/VANDPD/VMAXPD pass; shipped as DIA.GradientStep where the CPU has AVX2"},
		{Name: "step-parallel", Kind: "step", Step: StepParallel, Portable: true,
			Note: "step-fused row-chunked across GOMAXPROCS goroutines, one join per step — no win against step-fused on the two cores the table is measured on: the small block is one chunk, the large one is bandwidth-bound"},
	}
	if sparse.KernelPath() == "avx2" {
		return all
	}
	var vs []Variant
	for _, v := range all {
		if !v.NeedsAVX2 {
			vs = append(vs, v)
		}
	}
	return vs
}

// MatVecFirstDiag lets the main diagonal (always Offsets[0] == 0, full
// row range) initialize dst, deleting the zero-fill pass.
func MatVecFirstDiag(a *sparse.DIA, lo, hi int, dst, x []float64) {
	d0 := a.Diags[0]
	for i := lo; i < hi; i++ {
		dst[i-lo] = d0[i] * x[i]
	}
	for k := 1; k < len(a.Offsets); k++ {
		o := a.Offsets[k]
		d := a.Diags[k]
		rlo, rhi := clipBand(a.N, lo, hi, o)
		for i := rlo; i < rhi; i++ {
			dst[i-lo] += d[i] * x[i+o]
		}
	}
}

// initDiag0 writes dst[j] = A[lo+j][lo+j] * x[lo+j] with all operands
// re-sliced to one shared length so the compiler can prove every index
// in-bounds once.
func initDiag0(a *sparse.DIA, lo, hi int, dst, x []float64) {
	m := hi - lo
	out := dst[:m]
	ds := a.Diags[0][lo:][:m]
	xs := x[lo:][:m]
	for j := 0; j < len(out); j++ {
		out[j] = ds[j] * xs[j]
	}
}

// accumBandRange adds diagonal k's contribution for rows [rlo,rhi) into
// dst (block origin lo), bounds-check-free.
func accumBandRange(a *sparse.DIA, lo int, dst, x []float64, k, rlo, rhi int) {
	if rhi <= rlo {
		return
	}
	o := a.Offsets[k]
	m := rhi - rlo
	ds := a.Diags[k][rlo:][:m]
	xs := x[rlo+o:][:m]
	out := dst[rlo-lo:][:m]
	for j := 0; j < len(out); j++ {
		out[j] += ds[j] * xs[j]
	}
}

// MatVecBCE is MatVecFirstDiag with every accumulation loop re-sliced to
// a shared length, eliminating per-element bounds checks.
func MatVecBCE(a *sparse.DIA, lo, hi int, dst, x []float64) {
	initDiag0(a, lo, hi, dst, x)
	for k := 1; k < len(a.Offsets); k++ {
		rlo, rhi := clipBand(a.N, lo, hi, a.Offsets[k])
		accumBandRange(a, lo, dst, x, k, rlo, rhi)
	}
}

// accumFuse4 adds diagonals k..k+3 into dst. Over the four bands' common
// row core all four contributions are applied in one pass (one dst
// load/store per element instead of four); rows covered by only some of
// the bands are handled by per-band remainder passes. Per-element
// ascending-k order holds everywhere: core rows see k,k+1,k+2,k+3 inside
// one iteration, remainder rows see their covering bands in ascending k
// because the remainder passes run in ascending k.
func accumFuse4(a *sparse.DIA, lo, hi int, dst, x []float64, k int) {
	o0, o1, o2, o3 := a.Offsets[k], a.Offsets[k+1], a.Offsets[k+2], a.Offsets[k+3]
	l0, h0 := clipBand(a.N, lo, hi, o0)
	l1, h1 := clipBand(a.N, lo, hi, o1)
	l2, h2 := clipBand(a.N, lo, hi, o2)
	l3, h3 := clipBand(a.N, lo, hi, o3)
	cl := max(max(l0, l1), max(l2, l3))
	ch := min(min(h0, h1), min(h2, h3))
	if cl >= ch {
		accumBandRange(a, lo, dst, x, k, l0, h0)
		accumBandRange(a, lo, dst, x, k+1, l1, h1)
		accumBandRange(a, lo, dst, x, k+2, l2, h2)
		accumBandRange(a, lo, dst, x, k+3, l3, h3)
		return
	}
	accumBandRange(a, lo, dst, x, k, l0, min(h0, cl))
	accumBandRange(a, lo, dst, x, k, max(l0, ch), h0)
	accumBandRange(a, lo, dst, x, k+1, l1, min(h1, cl))
	accumBandRange(a, lo, dst, x, k+1, max(l1, ch), h1)
	accumBandRange(a, lo, dst, x, k+2, l2, min(h2, cl))
	accumBandRange(a, lo, dst, x, k+2, max(l2, ch), h2)
	accumBandRange(a, lo, dst, x, k+3, l3, min(h3, cl))
	accumBandRange(a, lo, dst, x, k+3, max(l3, ch), h3)
	m := ch - cl
	ds0 := a.Diags[k][cl:][:m]
	ds1 := a.Diags[k+1][cl:][:m]
	ds2 := a.Diags[k+2][cl:][:m]
	ds3 := a.Diags[k+3][cl:][:m]
	xs0 := x[cl+o0:][:m]
	xs1 := x[cl+o1:][:m]
	xs2 := x[cl+o2:][:m]
	xs3 := x[cl+o3:][:m]
	out := dst[cl-lo:][:m]
	for j := 0; j < len(out); j++ {
		s := out[j]
		s += ds0[j] * xs0[j]
		s += ds1[j] * xs1[j]
		s += ds2[j] * xs2[j]
		s += ds3[j] * xs3[j]
		out[j] = s
	}
}

// MatVecFuse4 is firstdiag init, then four diagonals fused per pass,
// bounds-check-free throughout.
func MatVecFuse4(a *sparse.DIA, lo, hi int, dst, x []float64) {
	initDiag0(a, lo, hi, dst, x)
	nb := len(a.Offsets)
	k := 1
	for ; k+3 < nb; k += 4 {
		accumFuse4(a, lo, hi, dst, x, k)
	}
	for ; k < nb; k++ {
		rlo, rhi := clipBand(a.N, lo, hi, a.Offsets[k])
		accumBandRange(a, lo, dst, x, k, rlo, rhi)
	}
}

// accumGroup adds the bands ks — each covering all of [lo,hi) — into out
// in one pass, contributions in ks order; only a full group of four is
// fused, a shorter one falls back to one pass per band.
func accumGroup(a *sparse.DIA, lo, hi int, out, x []float64, ks []int) {
	if len(ks) < 4 {
		for _, k := range ks {
			accumBandRange(a, lo, out, x, k, lo, hi)
		}
		return
	}
	m := hi - lo
	out = out[:m]
	ds0, xs0 := a.Diags[ks[0]][lo:][:m], x[lo+a.Offsets[ks[0]]:][:m]
	ds1, xs1 := a.Diags[ks[1]][lo:][:m], x[lo+a.Offsets[ks[1]]:][:m]
	ds2, xs2 := a.Diags[ks[2]][lo:][:m], x[lo+a.Offsets[ks[2]]:][:m]
	ds3, xs3 := a.Diags[ks[3]][lo:][:m], x[lo+a.Offsets[ks[3]]:][:m]
	for j := 0; j < len(out); j++ {
		s := out[j]
		s += ds0[j] * xs0[j]
		s += ds1[j] * xs1[j]
		s += ds2[j] * xs2[j]
		s += ds3[j] * xs3[j]
		out[j] = s
	}
}

// MatVecFuseActive fuses by what the row range leaves of each band rather
// than by band index: full bands collect into a group that is accumulated
// in one pass when it reaches four, empty bands cost nothing, and a
// partial band first flushes the pending group — so every element still
// sees its bands in ascending order.
func MatVecFuseActive(a *sparse.DIA, lo, hi int, dst, x []float64) {
	initDiag0(a, lo, hi, dst, x)
	var grp [4]int
	n := 0
	for k := 1; k < len(a.Offsets); k++ {
		rlo, rhi := clipBand(a.N, lo, hi, a.Offsets[k])
		switch {
		case rhi <= rlo:
		case rlo == lo && rhi == hi:
			grp[n] = k
			if n++; n == len(grp) {
				accumGroup(a, lo, hi, dst, x, grp[:n])
				n = 0
			}
		default:
			accumGroup(a, lo, hi, dst, x, grp[:n])
			n = 0
			accumBandRange(a, lo, dst, x, k, rlo, rhi)
		}
	}
	accumGroup(a, lo, hi, dst, x, grp[:n])
}

// StepFirstDiag swaps in the firstdiag matvec, keeping the reference
// update traversal.
func StepFirstDiag(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	ax := scratch[:hi-lo]
	MatVecFirstDiag(a, lo, hi, ax, x)
	return updateInPlace(a, lo, hi, gamma, x, b, ax), stepFlops(a, lo, hi)
}

// StepUnroll4 swaps in the unroll4 matvec (DIA.RowRangeMulVec, which the
// table pins to the portable primitives for this row), keeping the
// reference update traversal.
func StepUnroll4(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	ax := scratch[:hi-lo]
	a.RowRangeMulVec(lo, hi, ax, x)
	return updateInPlace(a, lo, hi, gamma, x, b, ax), stepFlops(a, lo, hi)
}

// StepFuse4 swaps in the fuse4 matvec, keeping the reference update
// traversal.
func StepFuse4(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	ax := scratch[:hi-lo]
	MatVecFuse4(a, lo, hi, ax, x)
	return updateInPlace(a, lo, hi, gamma, x, b, ax), stepFlops(a, lo, hi)
}

// stepTileRows is DIA.GradientStep's row-tile granule: 2048 rows of
// accumulated A*x are 16KB, L1-resident when the update revisits them.
const stepTileRows = 2048

// tiledChunk runs accumulate+update over rows [clo,chi) of the block
// [lo,hi) one stepTileRows tile at a time: mv accumulates A*x into the
// tile's scratch slot, then each slot is overwritten with the relaxed
// value while the tile is L1-hot. New values are NOT published to x —
// callers copy scratch into x[lo:hi) once every chunk has finished reading
// the old iterate. Returns the chunk's max-norm change.
func tiledChunk(mv MatVec, a *sparse.DIA, lo, clo, chi int, gamma float64, x, b, scratch []float64) float64 {
	var maxd float64
	for tlo := clo; tlo < chi; tlo += stepTileRows {
		thi := min(tlo+stepTileRows, chi)
		mv(a, tlo, thi, scratch[tlo-lo:], x)
		m := thi - tlo
		nv := scratch[tlo-lo:][:m]
		ds := a.Diags[0][tlo:][:m]
		xs := x[tlo:][:m]
		bs := b[tlo:][:m]
		for j := 0; j < len(nv); j++ {
			v := xs[j] + gamma*(bs[j]-nv[j])/ds[j]
			if d := math.Abs(v - xs[j]); d > maxd {
				maxd = d
			}
			nv[j] = v
		}
	}
	return maxd
}

// StepFuseActive is step-fused's structure over the fuseactive matvec:
// single-tile blocks update in place, larger ones tile with deferred
// writes.
func StepFuseActive(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	if hi-lo <= stepTileRows {
		ax := scratch[:hi-lo]
		MatVecFuseActive(a, lo, hi, ax, x)
		return updateInPlace(a, lo, hi, gamma, x, b, ax), stepFlops(a, lo, hi)
	}
	maxd := tiledChunk(MatVecFuseActive, a, lo, lo, hi, gamma, x, b, scratch)
	copy(x[lo:hi], scratch[:hi-lo])
	return maxd, stepFlops(a, lo, hi)
}

// stepParallelMinRows is the minimum rows per goroutine before
// StepParallel stops splitting: below this the spawn+join overhead
// exceeds the arithmetic.
const stepParallelMinRows = 2048

// StepParallel row-chunks step-fused across GOMAXPROCS goroutines — the
// thread-level route. The deferred-write discipline makes this safe:
// every chunk reads the old iterate, writes its scratch region, and x is
// published after the barrier. The residual is the max over chunk
// residuals — identical to the sequential max. Blocks too small to split
// run DIA.GradientStep as it is.
func StepParallel(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	rows := hi - lo
	workers := runtime.GOMAXPROCS(0)
	if w := rows / stepParallelMinRows; workers > w {
		workers = w
	}
	if workers < 2 {
		return a.GradientStep(lo, hi, gamma, x, b, scratch)
	}
	maxds := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		clo := lo + w*rows/workers
		chi := lo + (w+1)*rows/workers
		wg.Add(1)
		go func(w, clo, chi int) {
			defer wg.Done()
			maxds[w] = tiledChunk(diaMatVec, a, lo, clo, chi, gamma, x, b, scratch)
		}(w, clo, chi)
	}
	wg.Wait()
	copy(x[lo:hi], scratch[:rows])
	var maxd float64
	for _, d := range maxds {
		if d > maxd {
			maxd = d
		}
	}
	return maxd, stepFlops(a, lo, hi)
}
