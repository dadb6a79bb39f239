package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// layoutCase is a DIA built from an independent definition of its
// entries, at(i, k) = A[i][i+Offsets[k]], by appending each band's covered
// rows in ascending order — so no index arithmetic of the layout's is
// shared with the code under test.
type layoutCase struct {
	a    *DIA
	vals map[[2]int]float64 // (row, band) → entry, for every covered pair
}

func (c layoutCase) at(i, k int) (float64, bool) {
	v, ok := c.vals[[2]int{i, k}]
	return v, ok
}

// newLayoutCase draws a matrix on the given off-diagonal offsets: band
// entries in ±[0.5, 1.5), a diagonal in [20, 30) that dominates them when
// the band count is small.
func newLayoutCase(rng *rand.Rand, n int, offs []int) layoutCase {
	c := layoutCase{a: &DIA{N: n, Offsets: append([]int{0}, offs...)}, vals: map[[2]int]float64{}}
	c.a.Diags = make([][]float64, len(c.a.Offsets))
	for k, o := range c.a.Offsets {
		c.a.Diags[k] = []float64{}
		for i := 0; i < n; i++ {
			if j := i + o; j < 0 || j >= n {
				continue
			}
			v := 20 + 10*rng.Float64()
			if k > 0 {
				v = (0.5 + rng.Float64()) * float64(1-2*rng.Intn(2))
			}
			c.a.Diags[k] = append(c.a.Diags[k], v)
			c.vals[[2]int{i, k}] = v
		}
	}
	return c
}

// rowRef is (A·x)_i from the definition, in the kernels' order: the
// diagonal's product, then each covered band's in ascending band order.
func (c layoutCase) rowRef(i int, x []float64) float64 {
	d, _ := c.at(i, 0)
	acc := d * x[i]
	for k := 1; k < len(c.a.Offsets); k++ {
		if v, ok := c.at(i, k); ok {
			acc += v * x[i+c.a.Offsets[k]]
		}
	}
	return acc
}

// layoutShapes are the matrices of the property test: offsets ±(n−1),
// which leave one-entry bands, besides random ones, on sizes from 2 rows
// to several of GradientStep's 2048-row tiles.
func layoutShapes(rng *rand.Rand) []layoutCase {
	var cs []layoutCase
	for _, n := range []int{2, 3, 5, 17, 64, 301, 2048, 2049, 3*2048 + 77} {
		offs := []int{n - 1}
		if n > 2 {
			offs = append(offs, -(n - 1))
		}
		for len(offs) < min(n-1, 6) {
			o := 1 + rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				o = -o
			}
			if !slices.Contains(offs, o) {
				offs = append(offs, o)
			}
		}
		rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
		cs = append(cs, newLayoutCase(rng, n, offs))
	}
	return cs
}

// layoutRanges are the row ranges tried on an n-row matrix: every
// one-row range and the empty one at each end; the whole matrix; ranges
// that miss row 0 and row n−1, where the ±(n−1) bands live; one tile and
// many tiles where n has them.
func layoutRanges(n int) [][2]int {
	rs := [][2]int{{0, 0}, {n, n}, {0, n}, {1, n}, {0, n - 1}, {n / 3, n - n/3}}
	for i := 0; i < n && i < 40; i++ {
		rs = append(rs, [2]int{i, i + 1}, [2]int{n - 1 - i, n - i})
	}
	if n > gradientTileRows {
		rs = append(rs, [2]int{0, gradientTileRows}, [2]int{n - gradientTileRows, n}, [2]int{7, n - 3})
	}
	return rs
}

// TestLayoutAgainstDefinition holds RowRangeMulVec, GradientStep,
// JacobiSpectralBound, NNZ, StoredFloats and Dense to a matrix's entry
// definition, bit for bit, on one-entry bands, on ranges that a band
// misses, on one-row ranges and on ranges of one tile and of many.
// TestMain runs it on both kernel paths.
func TestLayoutAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range layoutShapes(rng) {
		a, n := c.a, c.a.N
		what := fmt.Sprintf("n=%d offsets=%v", n, a.Offsets)
		if a.NNZ() != len(c.vals) || a.StoredFloats() != len(c.vals) {
			t.Fatalf("%s: NNZ %d, StoredFloats %d, want %d", what, a.NNZ(), a.StoredFloats(), len(c.vals))
		}
		var worst float64
		for i := 0; i < n; i++ {
			var off float64
			for k := 1; k < len(a.Offsets); k++ {
				if v, ok := c.at(i, k); ok {
					off += math.Abs(v)
				}
			}
			d, _ := c.at(i, 0)
			worst = max(worst, off/math.Abs(d))
		}
		if got := a.JacobiSpectralBound(); got != worst {
			t.Fatalf("%s: JacobiSpectralBound %v, want %v", what, got, worst)
		}
		if n <= 301 {
			for i, row := range a.Dense() {
				for j, v := range row {
					want, _ := c.at(i, slices.Index(a.Offsets, j-i))
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s: Dense[%d][%d] = %v, want %v", what, i, j, v, want)
					}
				}
			}
		}
		x, b := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, r := range layoutRanges(n) {
			lo, hi := r[0], r[1]
			got := make([]float64, hi-lo)
			a.RowRangeMulVec(lo, hi, got, x)
			for i := lo; i < hi; i++ {
				if want := c.rowRef(i, x); math.Float64bits(got[i-lo]) != math.Float64bits(want) {
					t.Fatalf("%s rows [%d,%d): (A·x)_%d = %v, want %v", what, lo, hi, i, got[i-lo], want)
				}
			}
			const gamma = 0.9
			xs := append([]float64(nil), x...)
			res, flops := a.GradientStep(lo, hi, gamma, xs, b, make([]float64, hi-lo))
			var wantRes float64
			for i := 0; i < n; i++ {
				want := x[i]
				if i >= lo && i < hi {
					d, _ := c.at(i, 0)
					want = x[i] + gamma*(b[i]-c.rowRef(i, x))/d
					wantRes = max(wantRes, math.Abs(want-x[i]))
				}
				if math.Float64bits(xs[i]) != math.Float64bits(want) {
					t.Fatalf("%s rows [%d,%d): GradientStep x[%d] = %v, want %v", what, lo, hi, i, xs[i], want)
				}
			}
			rows := float64(hi - lo)
			if res != wantRes || flops != 2*float64(len(a.Offsets))*rows+5*rows {
				t.Fatalf("%s rows [%d,%d): residual %v flops %v, want %v", what, lo, hi, res, flops, wantRes)
			}
		}
	}
}

// A band of the wrong length — the full length of the old layout, one
// short, one long — panics at the first use, naming the band, even where
// the row range misses it: misread silently, a full-length band at a
// negative offset would shift every entry by |o| rows.
func TestWrongBandLengthPanics(t *testing.T) {
	const n = 50
	for _, o := range []int{-(n - 1), -7, 7, n - 1} {
		for _, extra := range []int{abs(o), -1, 1} {
			a, _, _ := NewSystem(n, 4, 0.8, 3)
			a.Offsets = append(a.Offsets, o)
			a.Diags = append(a.Diags, make([]float64, n-abs(o)+extra))
			x, dst := make([]float64, n), make([]float64, n)
			uses := []struct {
				name string
				use  func()
			}{
				{"RowRangeMulVec", func() { a.RowRangeMulVec(0, 1, dst, x) }},
				{"MulVec", func() { a.MulVec(dst, x) }},
				{"GradientStep", func() { a.GradientStep(n-1, n, 1, x, x, dst) }},
				{"JacobiSpectralBound", func() { a.JacobiSpectralBound() }},
				{"Dense", func() { a.Dense() }},
			}
			for _, u := range uses {
				name, msg := u.name, panicOf(u.use)
				want := fmt.Sprintf("band %d (offset %d)", len(a.Offsets)-1, o)
				if !strings.Contains(msg, want) || !strings.Contains(msg, "stores only the rows it covers") {
					t.Errorf("offset %d, length n−|o|%+d: %s panicked with %q, want it to name %s", o, extra, name, msg, want)
				}
			}
		}
	}
	a, _, _ := NewSystem(n, 4, 0.8, 3)
	a.Diags[0] = a.Diags[0][:n-1]
	if msg := panicOf(func() { a.RowRangeMulVec(0, 0, nil, make([]float64, n)) }); !strings.Contains(msg, "band 0 (offset 0)") {
		t.Errorf("a short main diagonal panicked with %q", msg)
	}
}

func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// NewSystem stores exactly the matrix's non-zeros: StoredFloats is NNZ,
// and at the benchmark's kernel-large size (rep 0: n = 250 000,
// 12 off-diagonals, seed 20040426) and Table 1's (n = 2 000 000,
// 30 sub-diagonals) the bands hold 17.7 MB and 320 MB where n-long bands
// held 26.0 MB and 496 MB. The large counts come from the offsets alone,
// which NewSystem draws first.
func TestStoredFloatsIsNNZ(t *testing.T) {
	for _, s := range []struct{ n, nd int }{{2, 1}, {3, 2}, {13, 12}, {608, 30}, {40000, 12}} {
		for _, seed := range []int64{0, 20040426, -5} {
			a, _, _ := NewSystem(s.n, s.nd, 0.85, seed)
			if a.StoredFloats() != a.NNZ() {
				t.Errorf("n=%d numDiags=%d seed=%d: StoredFloats %d, NNZ %d", s.n, s.nd, seed, a.StoredFloats(), a.NNZ())
			}
		}
	}
	for _, s := range []struct {
		n, nd      int
		nnz        int
		mb, fullMB float64
	}{{250000, 12, 2214621, 17.7, 26.0}, {2000000, 30, 39971998, 320, 496}} {
		offs := append([]int{0}, spreadOffsets(s.n, s.nd, rand.New(rand.NewSource(20040426)))...)
		nnz := bandNNZ(s.n, offs)
		mb, fullMB := 8*float64(nnz)/1e6, 8*float64(len(offs)*s.n)/1e6
		if nnz != s.nnz || math.Abs(mb-s.mb) > 0.5 || fullMB != s.fullMB {
			t.Errorf("n=%d numDiags=%d: %d floats (%.1f MB, n-long %.1f MB), want %d (%.1f MB, %.1f MB)", s.n, s.nd, nnz, mb, fullMB, s.nnz, s.mb, s.fullMB)
		}
	}
}
