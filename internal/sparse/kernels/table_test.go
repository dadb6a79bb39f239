package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
		what: "the default sweep's linear cell and the `grid-dynamics` workload; one tile, so the step updates x in place; cache-resident, the same shape internal/bench times"},
	{name: "large", n: 250000, ranks: 2, rank: 0,
		what: "the `kernel-large` workload; 62 tiles on the deferred-write path; 26 MB of bands, streamed from memory"},
}

// block builds the shape's system and a random iterate and returns the
// measured row range.
func (s shape) block() (a *sparse.DIA, b, x []float64, lo, hi int) {
	a, b, _ = sparse.NewSystem(s.n, benchDiags, benchRho, benchSeed)
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

// Row is one line of the kernel table.
type Row struct {
	Name    string
	Kind    string
	Valid   bool
	NsPerOp float64
	GBps    float64 // band-data rate: 8 bytes × clipped band elements per op
	Speedup float64 // vs the same Kind's baseline variant
	Note    string
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
	a, b, _ := sparse.NewSystem(n, nd, 0.85, rng.Int63())
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
	want := make([]float64, hi-lo)
	MatVecBaseline(a, lo, hi, want, x)
	got := make([]float64, hi-lo)
	for i := range got {
		got[i] = math.NaN() // catch unwritten elements
	}
	v.MatVec(a, lo, hi, got, x)
	if i, ok := bitsEqual(want, got); !ok {
		return fmt.Sprintf("element %d = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	return ""
}

// stepMismatch runs a step variant against StepBaseline from one state and
// describes the first difference — iterate, residual or flops — or
// returns "".
func stepMismatch(v Variant, a *sparse.DIA, lo, hi int, gamma float64, x, b []float64) string {
	scratch := make([]float64, hi-lo)
	wantX := append([]float64(nil), x...)
	wantRes, wantFlops := StepBaseline(a, lo, hi, gamma, wantX, b, scratch)
	gotX := append([]float64(nil), x...)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	res, flops := v.Step(a, lo, hi, gamma, gotX, b, scratch)
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

// Measure validates and times every variant on one shape and returns the
// finished table, speedups normalized against each Kind's baseline (the
// first row of that Kind).
func Measure(t *testing.T, s shape) []Row {
	a, b, x, lo, hi := s.block()
	dst := make([]float64, hi-lo)
	scratch := make([]float64, hi-lo)
	bytes := float64(8 * bandElems(a, lo, hi))

	var rows []Row
	base := map[string]float64{}
	for _, v := range Variants() {
		row := Row{Name: v.Name, Kind: v.Kind, Note: v.Note}
		onPath(t, v, func(t *testing.T) {
			row.Valid = Validate(v)
			r := testing.Benchmark(func(tb *testing.B) {
				for i := 0; i < tb.N; i++ {
					if v.Kind == "matvec" {
						v.MatVec(a, lo, hi, dst, x)
					} else {
						v.Step(a, lo, hi, 1.0, x, b, scratch)
					}
				}
			})
			row.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
		})
		row.GBps = bytes / row.NsPerOp
		if _, ok := base[v.Kind]; !ok {
			base[v.Kind] = row.NsPerOp
		}
		row.Speedup = base[v.Kind] / row.NsPerOp
		rows = append(rows, row)
	}
	return rows
}

// Markdown renders the table: one row per variant, validity and speedup
// as first-class columns.
func Markdown(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("| variant | valid | ns/op | GB/s | speedup | note |\n")
	sb.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range rows {
		sb.WriteString(rowLine(r) + "\n")
	}
	return sb.String()
}

// rowLine is one row of the table.
func rowLine(r Row) string {
	valid := 0
	if r.Valid {
		valid = 1
	}
	return fmt.Sprintf("| %s | %d | %.0f | %.2f | %.3f | %s |",
		r.Name, valid, r.NsPerOp, r.GBps, r.Speedup, r.Note)
}

// Find returns the row with the given name, or nil.
func Find(rows []Row, name string) *Row {
	for i := range rows {
		if rows[i].Name == name {
			return &rows[i]
		}
	}
	return nil
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

// TestKernelTable is the measured table generator and CI gate. It is
// skipped unless requested, because timing the measured variants on both
// shapes and the assembly table takes about half a minute:
//
//	KERNELS_GATE=1  go test -run TestKernelTable ./internal/sparse/kernels
//	KERNELS_WRITE=KERNELS.md  (path relative to the repository root, or
//	absolute) regenerates the committed table.
//
// Gates: every measured variant valid=1 on both shapes, the shipped step
// at least 1.5× the baseline step on the small shape (the committed
// KERNELS.md documents about 4× on an idle machine; the slack absorbs
// noisy shared runners), and the shipped assembly valid and at least 1.5×
// the frozen one on the 250 000-row system. A runner without AVX2 ships
// the portable step, whose committed margin is too thin for a noisy
// runner: the step's speed gate is skipped there, the validity gate is
// not.
func TestKernelTable(t *testing.T) {
	write := os.Getenv("KERNELS_WRITE")
	if os.Getenv("KERNELS_GATE") == "" && write == "" {
		t.Skip("set KERNELS_GATE=1 or KERNELS_WRITE=<path> to run the measured kernel table")
	}
	path := sparse.KernelPath()
	shipped := "step-avx2"
	if path != "avx2" {
		shipped = "step-fused"
	}
	t.Logf("kernel path: %s (shipped step rung: %s)", path, shipped)

	var sections strings.Builder
	for _, s := range shapes {
		rows := Measure(t, s)
		md := Markdown(append(rows, recordedRows(s)...))
		t.Logf("%s shape:\n%s", s.name, md)
		for _, r := range rows {
			if !r.Valid {
				t.Errorf("%s shape: variant %s measured invalid", s.name, r.Name)
			}
		}
		ship := Find(rows, shipped)
		if ship == nil {
			t.Fatalf("%s missing from table", shipped)
		}
		switch {
		case s.name != "small":
		case path != "avx2":
			t.Logf("no AVX2 on this runner: speed gate skipped (%s %.3fx)", shipped, ship.Speedup)
		case ship.Speedup < 1.5:
			t.Errorf("%s speedup %.3f < 1.5 over step-baseline", shipped, ship.Speedup)
		}
		a, _, _, lo, hi := s.block()
		fmt.Fprintf(&sections, "## %s: rank %d's %d-row block of n=%d, p=%d\n\n%s; %.1f of %d bands active (%d band elements read per op).\n\n%s\n",
			s.name, s.rank, hi-lo, s.n, s.ranks, s.what,
			float64(bandElems(a, lo, hi))/float64(hi-lo), len(a.Offsets), bandElems(a, lo, hi), md)
	}
	asm := MeasureAssembly()
	checkAssembly(t, asm)
	t.Logf("assembly:\n%s", AssemblyMarkdown(asm))
	fmt.Fprintf(&sections, `## assembly: sparse.NewSystemSum, %d off-diagonals + main diagonal, rho=%g, seed %d

Every cell starts by assembling its system (problems.Cache builds each
once per sweep). ms/system is what a cache miss pays: the bands,
diagonal, b and xTrue, and the checksum the cache keeps of them. "valid"
= 1 means NewSystem reproduced AssembleBaseline bit for bit — every
band, b and xTrue — on randomized shapes (sizes from 2 to 6000 rows,
band counts up to 40, offsets anywhere in ±(n−1)) and on the row's own
system. The speedup is against the baseline at the same n.

%s
`, benchDiags, benchRho, benchSeed, AssemblyMarkdown(asm))
	if write == "" {
		return
	}
	doc := fmt.Sprintf(`# Kernel variants — measured

Generated by:

    KERNELS_WRITE=KERNELS.md go test -run TestKernelTable ./internal/sparse/kernels

on a machine whose kernel path is %q. Both shapes are blocks of the
default linear system: %d off-diagonals + main diagonal, rho=%g, seed %d.
GB/s is the band-data rate: 8 bytes x the band elements the block reads
per op (bands clipped to the matrix; the rows a band leaves empty are not
read and not counted). Speedup is against the same-kind baseline (the
frozen pre-kernelization code) on the same shape. "valid" = 1 means the
variant reproduced that baseline bit-for-bit on randomized shapes and row
ranges, single-tile and multi-tile, when the row was measured. Rows naming
the portable primitives were measured with them pinned (sparse.PinPortable);
rows whose note says shipped call sparse.DIA's methods directly.

In each table the baselines and the shipped kernels are measured every
time this command runs. The rows from matvec-firstdiag on are recorded:
the rungs that lost, as this table last measured them before their code
was deleted (git history keeps it), on a machine whose kernel path was
"avx2", their speedup against the baseline of that run: compare them with
the measured rows by speedup, not by time, since the two runs need not
share a machine or its load. TestRecordedRowsCommitted holds them to the
Go-side table that prints them.

%s## Shipped

DIA.RowRangeMulVec and DIA.GradientStep run matvec-avx2 / step-avx2 on
amd64 when the CPU and the OS support AVX2, and matvec-unroll4 /
step-fused — the same code on the pure-Go primitives — everywhere else;
sparse.KernelPath() and aiacbench -metrics KEY (aiac_kernel_path) say which.
Virtual-time results are pinned: the simulators charge modeled flops
(2 x bands x rows + 5 x rows per step), which every variant returns
identically, so faster kernels change host time only.

## The one judgement call

matvec-fuseactive and step-fuseactive are the only retired rungs that beat
a shipped path: 4310 vs 5132 ns and 6793 vs 8175 ns on the small shape,
880 vs 949 us and 933 vs 1155 us on the large one. The path they beat is
the portable one, which ships off amd64 and on amd64 without AVX2. They
are retired anyway: no benchmark box or CI runner runs the portable path,
so no workload could show the win, and a kernel gain counts here only when
an end-to-end number moves. Their recorded rows and git history are where
a later change that targets a portable machine starts.

## Tried and not kept

AVX2 with active-band fusion — fuseactive's grouping over two- and
four-band VMULPD/VADDPD primitives, one load and store of the accumulator
per group instead of per band — was measured on a scratch copy against
step-avx2: ten alternating rounds at GOMAXPROCS=1, median ns/op per band
vs fused. Small shape: 3320 vs 3276 on rank 0's block (fused ahead in 9
rounds of 10), 3640 vs 3739 on rank 4's (3 of 10). Large shape: 825 vs
727 us on rank 0's block (9 of 10), 884 vs 867 us on rank 1's (7 of 10).
Between 0.97x and 1.13x depending on the block, for 130 more lines of
assembly and a grouping pass in front of every tile: not shipped, and —
Go has no test-only assembly — not kept as a rung. The pure-Go form of the
same grouping is the fuseactive rows above.
`, path, benchDiags, benchRho, benchSeed, sections.String())
	if !filepath.IsAbs(write) {
		write = "../../../" + write
	}
	if err := os.WriteFile(write, []byte(doc), 0o644); err != nil {
		t.Fatalf("writing %s: %v", write, err)
	}
	t.Logf("wrote %s", write)
}

// TestRecordedRowsCommitted holds KERNELS.md and recordedRungs to each
// other, without timing anything: in each shape's section, the committed
// rows that no variant measures are the recorded rungs in order, and each
// is exactly what recordedRows renders, checked per rung so a drift names it.
func TestRecordedRowsCommitted(t *testing.T) {
	doc, err := os.ReadFile("../../../KERNELS.md")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, v := range variants {
		measured[v.Name] = true
	}
	sections := strings.Split(string(doc), "\n## ")
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			var names, want []string
			committed := map[string]string{}
			for _, sec := range sections {
				for _, line := range strings.Split(sec, "\n") {
					name, ok := strings.CutPrefix(line, "| ")
					if name, _, _ = strings.Cut(name, " |"); ok && strings.HasPrefix(sec, s.name+":") && name != "variant" && !measured[name] {
						names, committed[name] = append(names, name), line
					}
				}
			}
			for _, r := range recordedRows(s) {
				want = append(want, r.Name)
				t.Run(r.Name, func(t *testing.T) {
					if line := committed[r.Name]; line != rowLine(r) {
						t.Errorf("KERNELS.md's row:\n%s\nrecordedRungs renders:\n%s", line, rowLine(r))
					}
				})
			}
			if !slices.Equal(names, want) {
				t.Errorf("KERNELS.md's recorded rows are %v, recordedRungs has %v", names, want)
			}
		})
	}
}

// BenchmarkKernels exposes every measured variant on both shapes as sub-benchmarks
// for manual exploration:
//
//	go test -run '^$' -bench Kernels ./internal/sparse/kernels
func BenchmarkKernels(b *testing.B) {
	for _, s := range shapes {
		a, bb, x, lo, hi := s.block()
		dst := make([]float64, hi-lo)
		scratch := make([]float64, hi-lo)
		for _, v := range Variants() {
			b.Run(s.name+"/"+v.Name, func(b *testing.B) {
				if v.Portable {
					sparse.PinPortable(b)
				}
				b.SetBytes(int64(8 * bandElems(a, lo, hi)))
				for i := 0; i < b.N; i++ {
					if v.Kind == "matvec" {
						v.MatVec(a, lo, hi, dst, x)
					} else {
						v.Step(a, lo, hi, 1.0, x, bb, scratch)
					}
				}
			})
		}
	}
}
