package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// TestOperatorAccessors holds the Operator metadata methods of a DIA, read
// through the interface the problems layer uses, to its fields and its
// dense form on random shapes: Dim is N, BandOffsets is Offsets with the
// main diagonal first, DiagAt is the dense diagonal bit for bit, and
// StoredFloats is NNZ.
func TestOperatorAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(200)
		nd := 1 + rng.Intn(min(30, n-1))
		seed := rng.Int63()
		a, _, _ := NewSystem(n, nd, 0.85, seed)
		var op Operator = a
		if op.Dim() != n {
			t.Fatalf("n=%d nd=%d seed=%d: Dim %d", n, nd, seed, op.Dim())
		}
		offs := op.BandOffsets()
		if len(offs) != nd+1 || offs[0] != 0 {
			t.Fatalf("n=%d nd=%d seed=%d: BandOffsets %v, want %d offsets, the main diagonal first", n, nd, seed, offs, nd+1)
		}
		for k, o := range a.Offsets {
			if offs[k] != o {
				t.Fatalf("n=%d nd=%d seed=%d: BandOffsets[%d] = %d, Offsets[%d] = %d", n, nd, seed, k, offs[k], k, o)
			}
		}
		for i, row := range a.Dense() {
			if math.Float64bits(op.DiagAt(i)) != math.Float64bits(row[i]) {
				t.Fatalf("n=%d nd=%d seed=%d: DiagAt(%d) = %v, dense %v", n, nd, seed, i, op.DiagAt(i), row[i])
			}
		}
		if op.StoredFloats() != op.NNZ() {
			t.Fatalf("n=%d nd=%d seed=%d: StoredFloats %d, NNZ %d", n, nd, seed, op.StoredFloats(), op.NNZ())
		}
	}
}

// TestFingerprintDeterministic: the same parameters give the same
// fingerprint, so the problem cache's check holds across rebuilds; a
// different seed, size or band count gives another.
func TestFingerprintDeterministic(t *testing.T) {
	fp := func(n, nd int, seed int64) uint64 {
		a, _, _ := NewSystem(n, nd, 0.85, seed)
		return a.Fingerprint()
	}
	base := fp(500, 9, 123)
	if again := fp(500, 9, 123); again != base {
		t.Fatalf("same parameters: fingerprints %x and %x", base, again)
	}
	for _, c := range []struct {
		what  string
		n, nd int
		seed  int64
	}{{"seed", 500, 9, 124}, {"size", 501, 9, 123}, {"band count", 500, 10, 123}} {
		if fp(c.n, c.nd, c.seed) == base {
			t.Errorf("a different %s gave the same fingerprint %x", c.what, base)
		}
	}
}

// TestFingerprintCatchesMutation: the problem cache relies on Fingerprint
// to see a shared system changed in place. Changing any one stored entry,
// in any band, or one offset or the size, changes it; undoing the change
// restores it.
func TestFingerprintCatchesMutation(t *testing.T) {
	a, _, _ := NewSystem(300, 8, 0.8, 7)
	base := a.Fingerprint()
	check := func(what string, mutate, undo func()) {
		t.Helper()
		mutate()
		if a.Fingerprint() == base {
			t.Errorf("%s: fingerprint unchanged", what)
		}
		undo()
		if got := a.Fingerprint(); got != base {
			t.Fatalf("%s undone: fingerprint %x, want %x", what, got, base)
		}
	}
	for k, d := range a.Diags {
		for _, i := range []int{0, len(d) / 2, len(d) - 1} {
			old := d[i]
			check("band entry", func() { d[i] = math.Nextafter(old, math.Inf(1)) }, func() { d[i] = old })
			check("band entry sign", func() { d[i] = -old }, func() { d[i] = old })
		}
		if k > 0 {
			old := a.Offsets[k]
			check("offset", func() { a.Offsets[k] = old + 1 }, func() { a.Offsets[k] = old })
		}
	}
	check("size", func() { a.N++ }, func() { a.N-- })
}

// TestSpectralBoundIsRho: NewSystem sets each diagonal entry to its row's
// off-diagonal sum over rho, so the Jacobi bound is rho itself up to
// rounding, not merely below it: the dominance a cell asks for is the one
// it iterates.
func TestSpectralBoundIsRho(t *testing.T) {
	for _, c := range []struct {
		n, nd int
		rho   float64
	}{{400, 8, 0.7}, {1000, 30, 0.85}, {50, 1, 0.5}} {
		a, _, _ := NewSystem(c.n, c.nd, c.rho, 99)
		if got := a.JacobiSpectralBound(); math.Abs(got-c.rho) > 1e-12 {
			t.Errorf("n=%d numDiags=%d: spectral bound %v, want %v", c.n, c.nd, got, c.rho)
		}
	}
}
