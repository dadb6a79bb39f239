package kernels

// The ladder: the frozen baselines (kernels.go) and the shipped kernels,
// measured every time the table is made, and the rungs that lost, recorded
// rows. Only the baselines and sparse.DIA's own methods are non-test code;
// the rows marked shipped call those methods directly.

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

// stepTileRows is DIA.GradientStep's row-tile granule: 2048 rows of
// accumulated A*x are 16KB, L1-resident when the update revisits them.
const stepTileRows = 2048

// variants are the measured rows in table order. The first entry of each
// Kind is the frozen reference ("baseline") the others are validated and
// speedup-normalized against.
var variants = []Variant{
	{Name: "matvec-baseline", Kind: "matvec", MatVec: MatVecBaseline,
		Note: "frozen pre-kernelization RowRangeMulVec: zero-fill pass, one clipped pass per diagonal"},
	{Name: "matvec-unroll4", Kind: "matvec", MatVec: diaMatVec, Portable: true,
		Note: "bce + 4-wide unroll of the accumulation loop; DIA.RowRangeMulVec on the portable primitives — shipped off amd64 and on amd64 without AVX2"},
	{Name: "matvec-avx2", Kind: "matvec", MatVec: diaMatVec, NeedsAVX2: true,
		Note: "one VMULPD/VADDPD pass per band, four doubles per op, mul then add (no FMA); shipped as DIA.RowRangeMulVec where the CPU has AVX2"},
	{Name: "step-baseline", Kind: "step", Step: StepBaseline,
		Note: "frozen pre-kernelization GradientStep: baseline matvec into scratch, then a separate update traversal"},
	{Name: "step-fused", Kind: "step", Step: diaStep, Portable: true,
		Note: "unroll4 accumulate + update+residual per L1-hot row tile, deferred write publishing x once; single-tile blocks update in place; DIA.GradientStep on the portable primitives"},
	{Name: "step-avx2", Kind: "step", Step: diaStep, NeedsAVX2: true,
		Note: "step-fused's tiling over the avx2 matvec, update+residual as one VSUBPD/VMULPD/VDIVPD/VADDPD/VANDPD/VMAXPD pass; shipped as DIA.GradientStep where the CPU has AVX2"},
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

// recordedRung is a rung that lost: its code is deleted (git history keeps
// it) and its rows are the numbers KERNELS.md last measured, on a machine
// whose kernel path was "avx2", each shape's ns/op, GB/s and speedup
// against that run's baseline. All were valid.
type recordedRung struct {
	name, note   string
	small, large [3]float64
}

var recordedRungs = []recordedRung{
	{"matvec-firstdiag", "main diagonal initializes dst, deleting the zero-fill pass",
		[3]float64{10287, 9.19, 1.407}, [3]float64{1325116, 6.41, 1.144}},
	{"matvec-bce", "firstdiag + operands re-sliced to one shared length so the compiler drops bounds checks",
		[3]float64{5026, 18.82, 2.880}, [3]float64{972347, 8.74, 1.560}},
	{"matvec-fuse4", "bce + four diagonals per pass over their common row core (dst traffic /4) — no win: spread offsets leave the cores mostly empty",
		[3]float64{6049, 15.64, 2.393}, [3]float64{1007005, 8.44, 1.506}},
	{"matvec-fuseactive", "pure Go: consecutive bands that cover the whole row range accumulated in one pass (up to four), empty bands skipped, a partial band flushes the group",
		[3]float64{4310, 21.95, 3.359}, [3]float64{880064, 9.65, 1.723}},
	{"step-firstdiag", "baseline update pass over the firstdiag matvec",
		[3]float64{13141, 7.20, 1.030}, [3]float64{1607129, 5.29, 0.930}},
	{"step-unroll4", "baseline update pass over the unroll4 matvec",
		[3]float64{8404, 11.25, 1.611}, [3]float64{1129619, 7.52, 1.323}},
	{"step-fuse4", "baseline update pass over the fuse4 matvec",
		[3]float64{9620, 9.83, 1.407}, [3]float64{1250344, 6.80, 1.195}},
	{"step-fuseactive", "step-fused's tiling and pure-Go update over the fuseactive matvec",
		[3]float64{6793, 13.92, 1.993}, [3]float64{933046, 9.11, 1.602}},
	{"step-parallel", "step-fused row-chunked across GOMAXPROCS goroutines, one join per step — no win against step-fused on the two cores the table is measured on: the small block is one chunk, the large one is bandwidth-bound",
		[3]float64{7194, 13.15, 1.882}, [3]float64{1305948, 6.51, 1.144}},
}

// recordedRows renders the recorded rungs as rows of shape s's table.
func recordedRows(s shape) []Row {
	rows := make([]Row, 0, len(recordedRungs))
	for _, r := range recordedRungs {
		m := r.small
		if s.name == "large" {
			m = r.large
		}
		rows = append(rows, Row{Name: r.name, Valid: true, NsPerOp: m[0], GBps: m[1], Speedup: m[2], Note: r.note})
	}
	return rows
}
