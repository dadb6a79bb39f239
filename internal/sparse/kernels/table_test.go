package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aiac/internal/ladder"
	"aiac/internal/sparse"
)

// The ladder is measured on the two block shapes the repo actually runs,
// both of the default linear system (12 off-diagonals + main diagonal,
// rho=0.85, generator seed 20040426).
const (
	benchDiags = 12
	benchRho   = 0.85
	benchSeed  = 20040426
)

// shape is one measured block: rank `rank` of an n-row system split over
// `ranks` processors.
type shape struct {
	name     string
	n, ranks int
	rank     int
	what     string
}

var shapes = []shape{
	{name: "small", n: 12000, ranks: 8, rank: 0,
		what: "the default sweep's linear cell and the `grid-dynamics` workload; one tile, so the step updates x in place; cache-resident"},
	{name: "large", n: 250000, ranks: 2, rank: 0,
		what: "the `kernel-large` workload; 62 tiles on the deferred-write path; 17.7 MB of bands, streamed from memory"},
}

// block builds the shape's system and a random iterate and returns the
// measured row range.
func (s shape) block() (a *sparse.DIA, b, x []float64, lo, hi int) {
	a, b, _, _ = sparse.NewSystemSum(s.n, benchDiags, benchRho, benchSeed)
	bounds := sparse.Partition(s.n, s.ranks)
	rng := rand.New(rand.NewSource(1))
	x = make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return a, b, x, bounds[s.rank], bounds[s.rank+1]
}

// bandElems counts the band elements rows [lo,hi) actually read: every
// band clipped to the matrix, the rows it leaves empty not counted.
func bandElems(a *sparse.DIA, lo, hi int) int {
	n := 0
	for _, o := range a.Offsets {
		if rlo, rhi := clipBand(a.N, lo, hi, o); rhi > rlo {
			n += rhi - rlo
		}
	}
	return n
}

// randSystem builds a random paper-style system plus a random iterate:
// random size, band count, and seed, so offsets land anywhere in ±(n−1)
// — including bands whose overlap with a row range is empty. maxN above
// DIA.GradientStep's tile (2048 rows) reaches its deferred-write branch.
func randSystem(rng *rand.Rand, maxN int) (*sparse.DIA, []float64, []float64) {
	n := 2 + rng.Intn(maxN-1)
	nd := 1 + rng.Intn(40)
	if nd >= n {
		nd = n - 1
	}
	a, b, _, _ := sparse.NewSystemSum(n, nd, 0.85, rng.Int63())
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return a, b, x
}

// randRange picks a row range in [0,n], biased toward the edge cases:
// empty (lo==hi), full, and one-row.
func randRange(rng *rand.Rand, n int) (int, int) {
	switch rng.Intn(5) {
	case 0:
		lo := rng.Intn(n + 1)
		return lo, lo // empty
	case 1:
		return 0, n // full
	case 2:
		lo := rng.Intn(n)
		return lo, lo + 1 // single row
	default:
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		return lo, hi
	}
}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// matVecMismatch runs a matvec variant against MatVecBaseline on one case
// and describes the first difference in bits, or returns "".
func matVecMismatch(v Variant, a *sparse.DIA, lo, hi int, x []float64) string {
	full := FullLength(a)
	want := make([]float64, hi-lo)
	MatVecBaseline(full, lo, hi, want, x)
	got := make([]float64, hi-lo)
	for i := range got {
		got[i] = math.NaN() // catch unwritten elements
	}
	v.MatVec(v.on(a, full), lo, hi, got, x)
	if i, ok := bitsEqual(want, got); !ok {
		return fmt.Sprintf("element %d = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	return ""
}

// stepMismatch runs a step variant against StepBaseline from one state and
// describes the first difference — iterate, residual or flops — or
// returns "".
func stepMismatch(v Variant, a *sparse.DIA, lo, hi int, gamma float64, x, b []float64) string {
	full := FullLength(a)
	scratch := make([]float64, hi-lo)
	wantX := append([]float64(nil), x...)
	wantRes, wantFlops := StepBaseline(full, lo, hi, gamma, wantX, b, scratch)
	gotX := append([]float64(nil), x...)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	res, flops := v.Step(v.on(a, full), lo, hi, gamma, gotX, b, scratch)
	if i, ok := bitsEqual(wantX, gotX); !ok {
		return fmt.Sprintf("x[%d] = %x, want %x", i, math.Float64bits(gotX[i]), math.Float64bits(wantX[i]))
	}
	if math.Float64bits(res) != math.Float64bits(wantRes) {
		return fmt.Sprintf("residual %v, want %v", res, wantRes)
	}
	if flops != wantFlops {
		return fmt.Sprintf("flops %v, want %v", flops, wantFlops)
	}
	return ""
}

// onPath runs f as the subtest v.Name on the primitives the variant is
// defined on: portable rows pin sparse's pure-Go path for the subtest.
func onPath(t *testing.T, v Variant, f func(t *testing.T)) {
	t.Run(v.Name, func(t *testing.T) {
		if v.Portable {
			sparse.PinPortable(t)
		}
		f(t)
	})
}

// Validate proves a variant bit-identical to its Kind's frozen baseline
// on random shapes and row ranges — 80 small systems and 8 that span
// several step tiles. This is what the table's "valid" column reports —
// computed at generation time, never assumed.
func Validate(v Variant) bool {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 88; trial++ {
		maxN := 401
		if trial >= 80 {
			maxN = 3 * stepTileRows
		}
		a, b, x := randSystem(rng, maxN)
		lo, hi := randRange(rng, a.N)
		if v.Kind == "matvec" {
			if matVecMismatch(v, a, lo, hi, x) != "" {
				return false
			}
			continue
		}
		if stepMismatch(v, a, lo, hi, 0.1+rng.Float64(), x, b) != "" {
			return false
		}
	}
	return true
}

// op returns one call of v on rows [lo,hi) of a — of full, its
// full-length copy, for the frozen rows — as the table times it.
func op(v Variant, a, full *sparse.DIA, b, x []float64, lo, hi int) func() {
	a = v.on(a, full)
	dst, scratch := make([]float64, hi-lo), make([]float64, hi-lo)
	if v.Kind == "matvec" {
		return func() { v.MatVec(a, lo, hi, dst, x) }
	}
	return func() { v.Step(a, lo, hi, 1.0, x, b, scratch) }
}

// measureShape validates and times every variant on one shape and writes
// its rows, speedups against each Kind's baseline (the first row of that
// Kind); it gates every row valid and the shipped step at least 1.5× its
// baseline on the small shape.
func measureShape(t *testing.T, doc *ladder.Doc, s shape, shipped string) {
	tab := doc.Table("## " + s.name + ":")
	a, b, x, lo, hi := s.block()
	full := FullLength(a)
	bytes := float64(8 * bandElems(a, lo, hi))
	base := map[string]float64{}
	for _, v := range Variants() {
		var valid bool
		var ns float64
		onPath(t, v, func(t *testing.T) {
			valid = Validate(v)
			f := op(v, a, full, b, x, lo, hi)
			r := testing.Benchmark(func(tb *testing.B) {
				for i := 0; i < tb.N; i++ {
					f()
				}
			})
			ns = float64(r.T.Nanoseconds()) / float64(r.N)
		})
		if _, ok := base[v.Kind]; !ok {
			base[v.Kind] = ns
		}
		speedup := base[v.Kind] / ns
		tab.Setf(v.Name, "valid", "%d", ladder.Bit(valid))
		tab.Setf(v.Name, "ns/op", "%.0f", ns)
		tab.Setf(v.Name, "GB/s", "%.2f", bytes/ns)
		tab.Setf(v.Name, "speedup", "%.3f", speedup)
		if !valid {
			t.Errorf("%s shape: variant %s measured invalid", s.name, v.Name)
		}
		switch {
		case s.name != "small" || v.Name != shipped:
		case sparse.KernelPath() != "avx2":
			t.Logf("no AVX2 on this runner: speed gate skipped (%s %.3fx)", shipped, speedup)
		case speedup < 1.5:
			t.Errorf("%s speedup %.3f < 1.5 over step-baseline", shipped, speedup)
		}
	}
	doc.Region(s.name, fmt.Sprintf("## %s: rank %d's %d-row block of n=%d, p=%d\n\n%s; %.1f of %d bands active (%d band elements read per op).",
		s.name, s.rank, hi-lo, s.n, s.ranks, s.what,
		float64(bandElems(a, lo, hi))/float64(hi-lo), len(a.Offsets), bandElems(a, lo, hi)))
}

// TestVariantsValid is the always-on fast gate: every measured variant
// must pass the random-shape bit-identity validation, the shipped rows on
// both of sparse's kernel paths.
func TestVariantsValid(t *testing.T) {
	for _, v := range Variants() {
		onPath(t, v, func(t *testing.T) {
			if !Validate(v) {
				t.Errorf("%s: failed bit-identity validation", v.Name)
			}
		})
	}
}

// kernelsSpec is what TestLadderKernels measures in KERNELS.md: every
// measured variant on both shapes, each assembler at every size, each
// shape's heading and the machine's kernel path.
func kernelsSpec() ladder.Spec {
	var names, asm []string
	for _, v := range Variants() {
		names = append(names, v.Name)
	}
	for _, n := range assemblySizes {
		for _, as := range assemblers {
			asm = append(asm, fmt.Sprintf("%s | %d", as.name, n))
		}
	}
	s := ladder.Spec{Doc: "KERNELS.md", Regions: []string{"machine"}}
	for _, sh := range shapes {
		s.Regions = append(s.Regions, sh.name)
		s.Tables = append(s.Tables, ladder.Table{Anchor: "## " + sh.name + ":", Key: []string{"variant"},
			Rows: names, Cols: []string{"valid", "ns/op", "GB/s", "speedup"}})
	}
	s.Tables = append(s.Tables, ladder.Table{Anchor: "## assembly:", Key: []string{"variant", "n"},
		Rows: asm, Cols: []string{"valid", "ms/system", "speedup"}})
	return s
}

// TestLadderKernels checks KERNELS.md and, under LADDER_GATE=1 or
// LADDER_WRITE=1, measures it: timing the measured variants on both shapes
// and the assembly table takes about half a minute. Gates: every measured
// variant valid=1 on both shapes, the shipped step at least 1.5× the
// baseline step on the small shape (the committed KERNELS.md documents
// about 4× on an idle machine; the slack absorbs noisy shared runners), and
// the shipped assembly valid and at least 1.5× the frozen one on the
// 250 000-row system. A runner without AVX2 ships the portable step, whose
// committed margin is too thin for a noisy runner: the step's speed gate is
// skipped there, the validity gate is not.
func TestLadderKernels(t *testing.T) {
	doc := ladder.Open(t, kernelsSpec())
	if !ladder.Gate(t) {
		return
	}
	path := sparse.KernelPath()
	shipped := "step-avx2"
	if path != "avx2" {
		shipped = "step-fused"
	}
	t.Logf("kernel path: %s (shipped step rung: %s)", path, shipped)
	doc.Region("machine", fmt.Sprintf("on a machine whose kernel path is %q.", path))
	for _, s := range shapes {
		measureShape(t, doc, s, shipped)
	}
	measureAssembly(t, doc)
	doc.Finish()
}

// BenchmarkKernels exposes every measured variant on both shapes as sub-benchmarks
// for manual exploration:
//
//	go test -run '^$' -bench Kernels ./internal/sparse/kernels
func BenchmarkKernels(b *testing.B) {
	for _, s := range shapes {
		a, bb, x, lo, hi := s.block()
		full := FullLength(a)
		for _, v := range Variants() {
			b.Run(s.name+"/"+v.Name, func(b *testing.B) {
				if v.Portable {
					sparse.PinPortable(b)
				}
				f := op(v, a, full, bb, x, lo, hi)
				b.SetBytes(int64(8 * bandElems(a, lo, hi)))
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
	}
}
