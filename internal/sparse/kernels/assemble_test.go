package kernels

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"aiac/internal/ladder"
	"aiac/internal/sparse"
)

// assemblyMismatch builds one system with the shipped sparse.NewSystem
// and with AssembleBaseline and describes the first difference in
// offsets, bands, b or xTrue, bit for bit, or returns "". Each shipped
// band must be the baseline band's in-range run, and the baseline's
// padding around that run zero.
func assemblyMismatch(n, numDiags int, rho float64, seed int64) string {
	wa, wb, wx := AssembleBaseline(n, numDiags, rho, seed)
	ga, gb, gx := sparse.NewSystem(n, numDiags, rho, seed)
	if fmt.Sprint(ga.Offsets) != fmt.Sprint(wa.Offsets) {
		return fmt.Sprintf("offsets %v, want %v", ga.Offsets, wa.Offsets)
	}
	run := inRange(wa)
	for k, o := range wa.Offsets {
		if len(ga.Diags[k]) != len(run.Diags[k]) {
			return fmt.Sprintf("band %d (offset %d) holds %d entries, want %d", k, o, len(ga.Diags[k]), len(run.Diags[k]))
		}
		if j, ok := bitsEqual(run.Diags[k], ga.Diags[k]); !ok {
			return fmt.Sprintf("band %d (offset %d) row %d differs", k, o, j+max(0, -o))
		}
		for i, v := range wa.Diags[k] {
			if j := i + o; (j < 0 || j >= n) && v != 0 {
				return fmt.Sprintf("baseline band %d (offset %d) pads row %d with %v", k, o, i, v)
			}
		}
	}
	if i, ok := bitsEqual(wb, gb); !ok || len(gb) != n {
		return fmt.Sprintf("b[%d] differs", i)
	}
	if i, ok := bitsEqual(wx, gx); !ok || len(gx) != n {
		return fmt.Sprintf("xTrue[%d] differs", i)
	}
	return ""
}

// ValidateAssembly proves sparse.NewSystem bit-identical to
// AssembleBaseline on random shapes: 60 systems of up to 400 rows, whose
// offsets land anywhere in ±(n−1), and 6 of up to 6000 rows, several row
// tiles each. This is what the assembly table's "valid" column reports.
func ValidateAssembly() bool {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 66; trial++ {
		maxN := 401
		if trial >= 60 {
			maxN = 6001
		}
		n := 2 + rng.Intn(maxN-1)
		nd := min(n-1, 1+rng.Intn(40))
		if assemblyMismatch(n, nd, 0.5+0.49*rng.Float64(), rng.Int63()-rng.Int63()) != "" {
			return false
		}
	}
	return true
}

// TestAssembleMatchesBaseline holds the shipped NewSystem to the frozen
// row loop on the sizes that cross the generator's boundaries (fewer than
// 607 draws come from the source; 607 and beyond from the recurrence),
// the workloads' sizes, and band counts up to n−1 — so rows whose band set
// is empty (diagonal 1/rho) and offsets at ±(n−1) occur — under
// GOMAXPROCS 1 and 2.
func TestAssembleMatchesBaseline(t *testing.T) {
	type shape struct{ n, nd int }
	shapes := []shape{{2, 1}, {3, 1}, {3, 2}, {13, 1}, {13, 6}, {13, 12},
		{607, 1}, {607, 30}, {607, 606}, {608, 1}, {608, 607}, {12000, 12}, {250000, 12}}
	if testing.Short() {
		shapes = shapes[:len(shapes)-1]
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, s := range shapes {
				for _, seed := range []int64{0, 1, 20040426, -5} {
					if msg := assemblyMismatch(s.n, s.nd, 0.85, seed); msg != "" {
						t.Errorf("n=%d numDiags=%d seed=%d: %s", s.n, s.nd, seed, msg)
					}
				}
			}
		})
	}
	if !ValidateAssembly() {
		t.Error("NewSystem differs from AssembleBaseline on a random shape")
	}
}

// assemblySizes are the system sizes of the assembly table: the default
// sweep's linear system, a middle size, and the `kernel-large` workload's.
var assemblySizes = []int{12000, 60000, 250000}

// assemblers are the assembly table's rows (KERNELS.md's notes say what
// each is).
var assemblers = []struct {
	name  string
	build func(n, numDiags int, rho float64, seed int64) (*sparse.DIA, []float64, []float64, uint64)
}{
	{"assemble-baseline", AssembleBaselineSum},
	{"assemble-shipped", sparse.NewSystemSum},
}

// measureAssembly validates and times both assemblers at every size of
// the table, each system of the default linear shape (12 off-diagonals,
// rho=0.85, seed 20040426), and writes their rows. Both rows time what a
// cache miss pays: the system and its checksum. A shipped row is valid when
// NewSystem matched the baseline bit for bit on ValidateAssembly's random
// shapes and on the row's own system. It gates every row valid, and the
// shipped assembly at least 1.5x the baseline on the `kernel-large` system.
func measureAssembly(t *testing.T, doc *ladder.Doc) {
	tab := doc.Table("## assembly:")
	shapesValid := ValidateAssembly()
	for _, n := range assemblySizes {
		var base float64
		for i, as := range assemblers {
			valid := i == 0 || shapesValid && assemblyMismatch(n, benchDiags, benchRho, benchSeed) == ""
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					as.build(n, benchDiags, benchRho, benchSeed)
				}
			})
			ms := float64(r.T.Nanoseconds()) / float64(r.N) / 1e6
			if i == 0 {
				base = ms
			}
			key := fmt.Sprintf("%s | %d", as.name, n)
			tab.Setf(key, "valid", "%d", ladder.Bit(valid))
			tab.Setf(key, "ms/system", "%.2f", ms)
			tab.Setf(key, "speedup", "%.3f", base/ms)
			if !valid {
				t.Errorf("assembly: %s at n=%d measured invalid", as.name, n)
			}
			if as.name == "assemble-shipped" && n == 250000 && base/ms < 1.5 {
				t.Errorf("assembly: assemble-shipped at n=%d is %.3fx the baseline, below 1.5x", n, base/ms)
			}
		}
	}
}
