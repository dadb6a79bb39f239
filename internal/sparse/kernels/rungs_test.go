package kernels

// The ladder: the frozen baselines (kernels.go) and the shipped kernels,
// measured every time the table is made; the rungs that lost are recorded
// rows of KERNELS.md alone. Only the baselines and sparse.DIA's own methods are non-test code;
// the rows marked shipped call those methods directly. The baselines run
// on the full-length copy of each system (FullLength), the shipped rows on
// the system as NewSystem built it.

import (
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
	// Portable rows run with sparse's pure-Go primitives pinned
	// (sparse.PinPortable); the others on the path the process chose.
	Portable bool
	// NeedsAVX2 rows exist only where that path is the AVX2 one.
	NeedsAVX2 bool
	// Full rows — the frozen baselines — read the full-length layout.
	Full bool
	// Exactly one of MatVec / Step is set, matching Kind.
	MatVec MatVec
	Step   Step
}

// on returns the matrix v runs on: full, FullLength's copy of a, for the
// frozen rows, a itself for the others.
func (v Variant) on(a, full *sparse.DIA) *sparse.DIA {
	if v.Full {
		return full
	}
	return a
}

func diaMatVec(a *sparse.DIA, lo, hi int, dst, x []float64) { a.RowRangeMulVec(lo, hi, dst, x) }

func diaStep(a *sparse.DIA, lo, hi int, gamma float64, x, b, scratch []float64) (float64, float64) {
	return a.GradientStep(lo, hi, gamma, x, b, scratch)
}

// stepTileRows is DIA.GradientStep's row-tile granule: 2048 rows of
// accumulated A*x are 16KB, L1-resident when the update revisits them.
const stepTileRows = 2048

// variants are the measured rows in table order (KERNELS.md's notes say
// what each is). The first entry of each Kind is the frozen reference
// ("baseline") the others are validated and speedup-normalized against.
var variants = []Variant{
	{Name: "matvec-baseline", Kind: "matvec", MatVec: MatVecBaseline, Full: true},
	{Name: "matvec-unroll4", Kind: "matvec", MatVec: diaMatVec, Portable: true},
	{Name: "matvec-avx2", Kind: "matvec", MatVec: diaMatVec, NeedsAVX2: true},
	{Name: "step-baseline", Kind: "step", Step: StepBaseline, Full: true},
	{Name: "step-fused", Kind: "step", Step: diaStep, Portable: true},
	{Name: "step-avx2", Kind: "step", Step: diaStep, NeedsAVX2: true},
}

// Variants returns the measured variants in table order, leaving out the
// rows that need AVX2 where the process runs the portable path.
func Variants() []Variant {
	if sparse.KernelPath() == "avx2" {
		return variants
	}
	var vs []Variant
	for _, v := range variants {
		if !v.NeedsAVX2 {
			vs = append(vs, v)
		}
	}
	return vs
}
