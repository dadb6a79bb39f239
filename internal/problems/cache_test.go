package problems

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"aiac/internal/sparse"
)

// testKey is the system most tests here retrieve.
var testKey = LinearKey{N: 500, Diags: 6, Rho: 0.8, Seed: 7}

// One cache entry per declared parameter set, shared by every retrieval.
func TestCacheSharesAssembly(t *testing.T) {
	c := NewCache()
	c.Declare(testKey, 2)
	l1 := c.Linear(500, 6, 0.8, 7)
	l2 := c.Linear(500, 6, 0.8, 7)
	if l1 == l2 {
		t.Fatal("cache must return fresh problem structs (they carry per-run state)")
	}
	if l1.A != l2.A || &l1.B[0] != &l2.B[0] || &l1.XTrue[0] != &l2.XTrue[0] {
		t.Error("same key must share the assembled system")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Held != 1 {
		t.Errorf("Stats = %+v; want 1 hit, 1 miss, 1 system held", st)
	}
}

// Cache keys cover the full parameter set, so entries can never alias
// across seeds (and therefore never across repetitions, which perturb the
// seed), sizes, band counts, or dominance ratios.
func TestCacheNeverAliasesAcrossSeeds(t *testing.T) {
	c := NewCache()
	c.Declare(testKey, 1)
	for _, k := range []LinearKey{{500, 6, 0.8, 8}, {600, 6, 0.8, 7}, {500, 7, 0.8, 7}, {500, 6, 0.85, 7}} {
		c.Declare(k, 2)
	}
	base := c.Linear(500, 6, 0.8, 7)
	for _, tc := range []struct {
		name  string
		other *Linear
	}{
		{"seed", c.Linear(500, 6, 0.8, 8)},
		{"size", c.Linear(600, 6, 0.8, 7)},
		{"diags", c.Linear(500, 7, 0.8, 7)},
		{"rho", c.Linear(500, 6, 0.85, 7)},
	} {
		if tc.other.A == base.A {
			t.Errorf("different %s must not share a cache entry", tc.name)
		}
	}
	// Different seeds generate genuinely different systems (repetition r
	// solving seed+r must measure a distinct run).
	other := c.Linear(500, 6, 0.8, 8)
	same := true
	for i := range base.B {
		if base.B[i] != other.B[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("systems for different seeds are identical")
	}
}

// LinearOp is Linear for operator "" or "dia": both retrieve Linear's one
// DIA entry. Any other operator panics, naming
// the roadmap item that removes the argument, instead of running the DIA.
func TestLinearOpIsDIAOnly(t *testing.T) {
	c := NewCache()
	c.Declare(testKey, 3)
	lin := c.Linear(500, 6, 0.8, 7)
	if _, ok := lin.A.(*sparse.DIA); !ok {
		t.Errorf("linear cell got %T", lin.A)
	}
	for _, op := range []string{"", "dia"} {
		if got := c.LinearOp(op, 500, 6, 0.8, 7); got.A != lin.A {
			t.Errorf("operator %q must retrieve Linear's entry", op)
		}
	}
	for _, op := range []string{"stencil", "DIA", "csr"} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("operator %q", op)) || !strings.Contains(msg, "item 4(b)") {
					t.Errorf("LinearOp(%q) panicked with %q; want the operator refused, naming item 4(b)", op, msg)
				}
			}()
			c.LinearOp(op, 500, 6, 0.8, 7)
		}()
	}
}

// Mutating a cached system must panic at the next retrieval, and fail
// Verify: shared assembly is read-only by contract, and silent corruption
// would poison every concurrent cell. A one-bit flip of any single word is
// caught — checked at the first, a middle and the last word of every band
// (each holding only the rows it covers), of b and of xTrue, on a system
// small enough to be verified on every hit and on one the partner
// goroutine assembles and checksums.
func TestCacheDetectsMutation(t *testing.T) {
	for _, n := range []int{500, 40000} {
		c := NewCache()
		c.Declare(LinearKey{N: n, Diags: 6, Rho: 0.8, Seed: 7}, 1)
		l := c.Linear(n, 6, 0.8, 7)
		a := l.A.(*sparse.DIA)
		parts := map[string][]float64{"b": l.B, "xTrue": l.XTrue}
		for k, d := range a.Diags {
			if o := a.Offsets[k]; len(d) != n-max(o, -o) {
				t.Fatalf("n=%d: band %d (offset %d) holds %d entries, not the n−|o| rows it covers", n, k, o, len(d))
			}
			parts[fmt.Sprintf("band %d", k)] = d
		}
		for name, p := range parts {
			for _, i := range []int{0, len(p) / 2, len(p) - 1} {
				p[i] = math.Float64frombits(math.Float64bits(p[i]) ^ 1)
				if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "mutated") {
					t.Errorf("n=%d: Verify missed a flipped bit in %s[%d]: %v", n, name, i, err)
				}
				if msg := hitPanic(c, n); !strings.Contains(msg, "mutated") {
					t.Errorf("n=%d: the next hit missed a flipped bit in %s[%d] (panic %q)", n, name, i, msg)
				}
				p[i] = math.Float64frombits(math.Float64bits(p[i]) ^ 1)
			}
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("n=%d: restored cache failed Verify: %v", n, err)
		}
		if msg := hitPanic(c, n); msg != "" {
			t.Fatalf("n=%d: restored cache panicked on a hit: %s", n, msg)
		}
	}
}

// hitPanic retrieves the n-row test system again and returns what the
// retrieval panicked with, or "".
func hitPanic(c *Cache, n int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	c.Linear(n, 6, 0.8, 7)
	return ""
}

// Verify is the end-of-sweep integrity pass: it must pass on a clean
// cache and report mutations — including in entries above the
// per-retrieval verification limit, which it is the only guard for.
func TestCacheVerify(t *testing.T) {
	c := NewCache()
	c.Declare(testKey, 1)
	l := c.Linear(500, 6, 0.8, 7)
	if err := c.Verify(); err != nil {
		t.Fatalf("clean cache failed Verify: %v", err)
	}
	// Every stored entry is in range, so Diags[1][7] exists and is not 0:
	// doubling it changes the matrix.
	if d := l.A.(*sparse.DIA).Diags[1]; len(d) <= 7 || d[7] == 0 {
		t.Fatalf("band 1 holds %d entries; entry 7 is not an in-range non-zero", len(d))
	}
	l.A.(*sparse.DIA).Diags[1][7] *= 2
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "mutated") {
		t.Fatalf("Verify missed a matrix mutation: %v", err)
	}
	l.A.(*sparse.DIA).Diags[1][7] /= 2
	if err := c.Verify(); err != nil {
		t.Fatalf("restored cache failed Verify: %v", err)
	}
	var nilCache *Cache
	if err := nilCache.Verify(); err != nil {
		t.Fatalf("nil cache Verify: %v", err)
	}
}

// A nil cache is the uncached mode: fresh assembly every call (the
// behaviour of the plain constructors, which delegate to it).
func TestNilCacheBuildsFresh(t *testing.T) {
	var c *Cache
	l1, l2 := c.Linear(500, 6, 0.8, 7), c.Linear(500, 6, 0.8, 7)
	if l1.A == l2.A {
		t.Error("nil cache must not share assembly")
	}
	if l1.B[3] != l2.B[3] || l1.A.Fingerprint() != l2.A.Fingerprint() {
		t.Error("nil-cache builds must still be deterministic per seed")
	}
	c.Declare(testKey, 1)
	c.Release(testKey)
	if st := c.Stats(); st != (CacheStats{}) {
		t.Error("nil cache has no stats")
	}
}

// Cached and uncached construction must produce identical systems — the
// cache is a pure memoization, invisible in every measurement.
func TestCacheMatchesUncached(t *testing.T) {
	c := NewCache()
	c.Declare(testKey, 1)
	cached, fresh := c.Linear(500, 6, 0.8, 7), NewLinear(500, 6, 0.8, 7)
	if len(cached.B) != len(fresh.B) {
		t.Fatal("size mismatch")
	}
	for i := range cached.B {
		if cached.B[i] != fresh.B[i] || cached.XTrue[i] != fresh.XTrue[i] {
			t.Fatal("cached and uncached systems differ")
		}
	}
}

// Concurrent retrievals of one key build the entry exactly once and all
// see the same arrays (run under -race in CI).
func TestCacheConcurrentRetrieval(t *testing.T) {
	c := NewCache()
	const n = 16
	c.Declare(testKey, n)
	probs := make([]*Linear, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			probs[i] = c.Linear(500, 6, 0.8, 7)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if probs[i].A != probs[0].A {
			t.Fatal("concurrent retrievals saw different entries")
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("built %d entries for one key", st.Misses)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Release(testKey)
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Held != 0 || st.PeakHeld != 1 {
		t.Fatalf("after every release: %+v; want the one system freed", st)
	}
}

// A system lives while declared uses remain: retrievals share it, the
// last release frees it, and a retrieval after that — or of a key nobody
// declared — builds a system for its caller alone. Releasing a declared
// use that never retrieved builds nothing.
func TestCacheFreesAtLastDeclaredUse(t *testing.T) {
	c := NewCache()
	c.Declare(testKey, 2)
	a := c.Linear(500, 6, 0.8, 7)
	c.Release(testKey)
	if b := c.Linear(500, 6, 0.8, 7); b.A != a.A {
		t.Error("a use is still declared: the retrieval must share the held system")
	}
	c.Release(testKey)
	if st := c.Stats(); st.Held != 0 || st.PeakHeld != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("after the last release: %+v; want the system freed", st)
	}
	x, y := c.Linear(500, 6, 0.8, 7), c.Linear(500, 6, 0.8, 7)
	if x.A == a.A || x.A == y.A || x.B[3] != a.B[3] {
		t.Error("undeclared retrievals must each build an equal system of their own")
	}
	other := LinearKey{N: 500, Diags: 6, Rho: 0.8, Seed: 9}
	c.Declare(other, 1)
	c.Release(other)
	if st := c.Stats(); st.Misses != 3 || st.Held != 0 || st.PeakHeld != 1 {
		t.Errorf("after undeclared retrievals and an unused release: %+v; want 3 builds, none held", st)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "more often than its uses were declared") {
				t.Errorf("an extra release panicked with %q", msg)
			}
		}()
		c.Release(testKey)
	}()
}

// The release that frees a system re-checksums it, whatever its size, and
// keeps the mismatch for Verify: a write in the last use is caught though
// no later retrieval or held entry could see it.
func TestCacheReleaseDetectsMutation(t *testing.T) {
	for _, n := range []int{500, 1 << 19} {
		c := NewCache()
		k := LinearKey{N: n, Diags: 12, Rho: 0.8, Seed: 7}
		c.Declare(k, 1)
		l := c.Linear(n, 12, 0.8, 7)
		if big := l.A.(*sparse.DIA).StoredFloats()+2*n > verifyOnHitLimit; big != (n > 500) {
			t.Fatalf("n=%d: above the per-hit limit %v; the cases cover one system on each side", n, big)
		}
		l.XTrue[n-1] = math.Float64frombits(math.Float64bits(l.XTrue[n-1]) ^ 1)
		c.Release(k)
		if err := c.Verify(); !errors.Is(err, ErrMutated) {
			t.Errorf("n=%d: Verify after the last release = %v; want ErrMutated", n, err)
		}
	}
}
