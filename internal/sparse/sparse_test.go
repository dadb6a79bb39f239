package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"aiac/internal/la"
)

func TestNewSystemShape(t *testing.T) {
	a, b, xt := NewSystem(100, 10, 0.9, 1)
	if a.N != 100 || len(b) != 100 || len(xt) != 100 {
		t.Fatal("bad shapes")
	}
	if len(a.Offsets) != 11 || a.Offsets[0] != 0 {
		t.Fatalf("offsets = %v", a.Offsets)
	}
	seen := map[int]bool{}
	for _, o := range a.Offsets {
		if seen[o] {
			t.Fatalf("duplicate offset %d", o)
		}
		seen[o] = true
	}
}

func TestSpectralBoundBelowOne(t *testing.T) {
	for _, rho := range []float64{0.5, 0.9, 0.99} {
		a, _, _ := NewSystem(500, 30, rho, 7)
		if got := a.JacobiSpectralBound(); got > rho+1e-12 {
			t.Fatalf("spectral bound %v exceeds rho %v", got, rho)
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	a, _, _ := NewSystem(40, 8, 0.9, 3)
	d := a.Dense()
	x := make([]float64, 40)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, 40)
	for i := range want {
		for j := range x {
			want[i] += d[i][j] * x[j]
		}
	}
	got := make([]float64, 40)
	a.MulVec(got, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestRowRangeMulVecMatchesFull(t *testing.T) {
	a, _, _ := NewSystem(60, 12, 0.9, 5)
	x := make([]float64, 60)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	full := make([]float64, 60)
	a.MulVec(full, x)
	for _, rng := range [][2]int{{0, 20}, {20, 40}, {40, 60}, {13, 47}} {
		lo, hi := rng[0], rng[1]
		part := make([]float64, hi-lo)
		a.RowRangeMulVec(lo, hi, part, x)
		for i := lo; i < hi; i++ {
			if math.Abs(part[i-lo]-full[i]) > 1e-12 {
				t.Fatalf("range [%d,%d) row %d: %v vs %v", lo, hi, i, part[i-lo], full[i])
			}
		}
	}
}

// Sequential fixed-step gradient (gamma=1 is Jacobi) must converge to the
// known true solution.
func TestGradientConvergesToTruth(t *testing.T) {
	a, b, xt := NewSystem(200, 15, 0.9, 11)
	x := make([]float64, a.N)
	scratch := make([]float64, a.N)
	var res float64
	for k := 0; k < 2000; k++ {
		res, _ = a.GradientStep(0, a.N, 1.0, x, b, scratch)
		if res < 1e-10 {
			break
		}
	}
	if res >= 1e-10 {
		t.Fatalf("no convergence, residual %v", res)
	}
	if d := la.MaxNormDiff(x, xt); d > 1e-8 {
		t.Fatalf("converged to wrong solution, err %v", d)
	}
}

// Block-wise Jacobi sweeps (each block updated with the others frozen —
// the synchronous parallel iteration) must also converge to the truth.
func TestBlockGradientConverges(t *testing.T) {
	a, b, xt := NewSystem(120, 10, 0.85, 13)
	const nparts = 4
	bounds := Partition(a.N, nparts)
	x := make([]float64, a.N)
	scratch := make([]float64, a.N)
	xPrev := make([]float64, a.N)
	for k := 0; k < 3000; k++ {
		copy(xPrev, x)
		xRead := make([]float64, a.N)
		copy(xRead, x)
		for p := 0; p < nparts; p++ {
			lo, hi := bounds[p], bounds[p+1]
			// Each block reads the previous iterate (synchronous).
			blk := make([]float64, a.N)
			copy(blk, xRead)
			a.GradientStep(lo, hi, 1.0, blk, b, scratch)
			copy(x[lo:hi], blk[lo:hi])
		}
		if la.MaxNormDiff(x, xPrev) < 1e-11 {
			break
		}
	}
	if d := la.MaxNormDiff(x, xt); d > 1e-8 {
		t.Fatalf("block iteration wrong solution, err %v", d)
	}
}

func TestColumnsTouchedCoversBand(t *testing.T) {
	a, _, _ := NewSystem(100, 10, 0.9, 17)
	segs := a.ColumnsTouched(40, 60)
	// The diagonal offset 0 guarantees [40,60) itself is touched.
	found := false
	for _, s := range segs {
		if s.Lo <= 40 && s.Hi >= 60 {
			found = true
		}
		if s.Lo < 0 || s.Hi > a.N || s.Lo >= s.Hi {
			t.Fatalf("invalid segment %+v", s)
		}
	}
	if !found {
		t.Fatalf("own rows not covered: %v", segs)
	}
	// Segments are sorted and disjoint.
	for i := 1; i < len(segs); i++ {
		if segs[i].Lo <= segs[i-1].Hi {
			t.Fatalf("segments overlap or unsorted: %v", segs)
		}
	}
}

func TestMergeSegments(t *testing.T) {
	got := MergeSegments([]Segment{{5, 10}, {0, 3}, {9, 12}, {3, 5}})
	if len(got) != 1 || got[0] != (Segment{0, 12}) {
		t.Fatalf("merge = %v", got)
	}
	if MergeSegments(nil) != nil {
		t.Fatal("nil merge should be nil")
	}
}

func TestPartitionAndOwner(t *testing.T) {
	bounds := Partition(100, 7)
	if bounds[0] != 0 || bounds[7] != 100 {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := 0; i < 100; i++ {
		p := OwnerOf(bounds, i)
		if i < bounds[p] || i >= bounds[p+1] {
			t.Fatalf("OwnerOf(%d) = %d, bounds %v", i, p, bounds)
		}
	}
}

// Property: partition boundaries are monotone and cover exactly [0,n).
func TestPartitionProperty(t *testing.T) {
	f := func(rawN, rawP uint8) bool {
		n := int(rawN)%500 + 1
		p := int(rawP)%n + 1
		b := Partition(n, p)
		if b[0] != 0 || b[len(b)-1] != n {
			return false
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNNZPositive(t *testing.T) {
	a, _, _ := NewSystem(1000, 30, 0.9, 23)
	if a.NNZ() <= 1000 {
		t.Fatalf("nnz = %d, want > n", a.NNZ())
	}
}

// NNZ must equal the stored-entry count of the materialized matrix — in
// particular on the extreme offsets ±(n−1), where each band clips to a
// single stored element, and on generated systems, where Dense() is the
// independent witness.
func TestNNZMatchesDense(t *testing.T) {
	countDense := func(a *DIA) int {
		nnz := 0
		for _, row := range a.Dense() {
			for _, v := range row {
				if v != 0 {
					nnz++
				}
			}
		}
		return nnz
	}
	for _, n := range []int{2, 3, 17} {
		a := &DIA{
			N:       n,
			Offsets: []int{0, n - 1, -(n - 1)},
			Diags:   make([][]float64, 3),
		}
		for k, o := range a.Offsets {
			a.Diags[k] = make([]float64, n-abs(o))
			for i := range a.Diags[k] {
				a.Diags[k][i] = float64(10*k + i + 1) // never zero
			}
		}
		// Each extreme band stores exactly one in-range element.
		if want := n + 2; a.NNZ() != want || a.NNZ() != countDense(a) {
			t.Errorf("n=%d edge offsets: NNZ=%d, dense=%d, want %d",
				n, a.NNZ(), countDense(a), want)
		}
	}
	for seed := int64(0); seed < 5; seed++ {
		a, _, _ := NewSystem(60+int(seed)*17, 6+int(seed), 0.9, seed)
		if a.NNZ() != countDense(a) {
			t.Errorf("seed %d: NNZ=%d, dense count=%d", seed, a.NNZ(), countDense(a))
		}
	}
}

func TestBadArgsPanic(t *testing.T) {
	cases := []func(){
		func() { NewSystem(1, 1, 0.9, 0) },
		func() { NewSystem(100, 0, 0.9, 0) },
		func() { NewSystem(100, 10, 1.5, 0) },
		func() { Partition(3, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a1, b1, _ := NewSystem(80, 12, 0.9, 99)
	a2, b2, _ := NewSystem(80, 12, 0.9, 99)
	for k := range a1.Offsets {
		if a1.Offsets[k] != a2.Offsets[k] {
			t.Fatal("offsets differ across identical seeds")
		}
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("rhs differs across identical seeds")
		}
	}
}
