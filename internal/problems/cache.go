package problems

import (
	"errors"
	"fmt"
	"sync"

	"aiac/internal/sparse"
)

// Cache memoizes problem assembly so a sweep builds each test system once
// and shares it read-only across every environment, grid and backend that
// solves it. Without it, an experiment-matrix sweep regenerates the
// identical sparse linear system once per cell — seven times per grid for
// the default matrix — which at paper-scale sizes (Table 1: n = 2,000,000
// with 30 sub-diagonals, 352 MB per system: 320 MB of bands, 32 MB for b
// and xTrue) is the dominant redundant cost and memory load of the sim
// phase.
//
// Sharing is sound because every solver in this repository treats the
// assembled data as immutable: sparse.DIA's kernels (RowRangeMulVec,
// GradientStep, MulVec) read the matrix and right-hand side and write only
// the iterate and caller-owned scratch, and the per-run mutable state
// (scratch buffers, weights) lives on the per-call problem structs, never
// on the shared arrays. The cache enforces the contract at runtime: every
// entry is checksummed while it is built (sparse.NewSystemSum), re-verified
// on every retrieval while small enough for that to be cheap
// (verifyOnHitLimit), and re-verified in full by Verify at the end of a
// sweep — so code that mutates a shared system panics at the next cache hit
// (or fails the sweep) instead of silently corrupting concurrent cells.
//
// Entries are never evicted: they live until the Cache itself is dropped
// (one sweep, in matrix.Run), because the end-of-sweep Verify needs them
// and any later cell may still hit them. A sweep mixing many sizes ×
// repetitions at paper scale therefore pins every distinct system at once
// (352 MB each at n = 2,000,000) and should budget memory accordingly —
// the default matrix holds exactly one.
//
// A nil *Cache is valid and simply builds fresh systems on every call —
// the uncached constructor NewLinear is a thin wrapper over it.
type Cache struct {
	mu     sync.Mutex
	linear map[linearKey]*linearEntry
	hits   int
	misses int
}

// ErrMutated marks an integrity failure of the cache: a solver wrote to
// shared read-only problem data. Callers distinguish it (errors.Is) from
// operational errors because it taints the sweep's measurements, not just
// its bookkeeping.
var ErrMutated = errors.New("shared problem data was mutated")

// NewCache returns an empty problem cache.
func NewCache() *Cache {
	return &Cache{linear: make(map[linearKey]*linearEntry)}
}

// linearKey identifies one generated sparse system: the full parameter
// set of sparse.NewSystem, so entries can never alias across sizes, band
// counts, dominance ratios, or seeds (and therefore never across
// repetitions, which perturb the seed).
type linearKey struct {
	n, diags int
	rho      float64
	seed     int64
}

type linearEntry struct {
	once  sync.Once
	a     *sparse.DIA
	b     []float64
	xtrue []float64
	sum   uint64
	elems int
}

// Stats reports how many retrievals hit an already-built entry and how
// many built one.
func (c *Cache) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// verifyOnHitLimit bounds the entry size (in stored float64s) that is
// re-checksummed on every retrieval. The eight-lane checksum on two cores
// (sparse.SystemSum) took 1.6–2.5 ms for kernel-large's 250 000-row entry
// (2.71M floats: 2.21M of bands, 0.5M of b and xTrue; under the limit) on
// a shared 2-core Xeon. At paper scale (n=2,000,000, 31 bands: 40.0M
// floats of bands, 44.0M in all) it took 37–39 ms per hit, each hit
// repeating it — such entries are verified once per sweep instead
// (Verify, called by matrix.Run when the sweep finishes).
const verifyOnHitLimit = 1 << 22

// sharedSystem returns the memoized (A, b, xTrue) for the key, building it
// on first use. Retrieving a small entry re-verifies its checksum (but for
// the call that built it and took that checksum) and panics on a mismatch:
// a mutated shared system would corrupt every concurrent cell reading it,
// so failing loudly at the cache boundary is the only safe response.
// Entries above verifyOnHitLimit are checked by Verify instead.
func (c *Cache) sharedSystem(n, diags int, rho float64, seed int64) (*sparse.DIA, []float64, []float64) {
	if c == nil {
		a, b, xt, _ := sparse.NewSystemSum(n, diags, rho, seed)
		return a, b, xt
	}
	k := linearKey{n: n, diags: diags, rho: rho, seed: seed}
	c.mu.Lock()
	e := c.linear[k]
	if e == nil {
		e = &linearEntry{}
		c.linear[k] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	built := false
	e.once.Do(func() {
		e.a, e.b, e.xtrue, e.sum = sparse.NewSystemSum(n, diags, rho, seed)
		e.elems = e.a.StoredFloats() + len(e.b) + len(e.xtrue)
		built = true
	})
	if !built && e.elems <= verifyOnHitLimit {
		if got := e.checksum(); got != e.sum {
			panic(fmt.Sprintf("problems: cached sparse system (n=%d diags=%d rho=%g seed=%d) was mutated: a solver wrote to shared read-only data", n, diags, rho, seed))
		}
	}
	return e.a, e.b, e.xtrue
}

// Verify re-checksums every cached entry — including the ones too large
// to check per retrieval — and reports the first mutation found. A sweep
// calls it once at the end, so even at paper scale a solver that wrote to
// shared data cannot go unnoticed.
func (c *Cache) Verify() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.linear {
		if e.a == nil {
			continue // never built
		}
		if e.checksum() != e.sum {
			return fmt.Errorf("problems: cached sparse system (n=%d diags=%d rho=%g seed=%d): %w", k.n, k.diags, k.rho, k.seed, ErrMutated)
		}
	}
	return nil
}

func (e *linearEntry) checksum() uint64 {
	return sparse.SystemSum(e.a, e.b, e.xtrue)
}

// Linear returns the sparse linear problem over the memoized test system:
// the matrix, right-hand side and true solution are shared read-only; the
// returned struct (iteration state, scratch, weights) is fresh per call.
func (c *Cache) Linear(n, numDiags int, rho float64, seed int64) *Linear {
	a, b, xt := c.sharedSystem(n, numDiags, rho, seed)
	return &Linear{A: a, B: b, XTrue: xt, Gamma: 1.0}
}

// LinearOp is Linear for op "" or "dia", the only matrix there is; it
// panics on any other op, and goes in ROADMAP item 4(b).
func (c *Cache) LinearOp(op string, n, numDiags int, rho float64, seed int64) *Linear {
	if op != "" && op != "dia" {
		panic(fmt.Sprintf("problems: operator %q: the linear system is the materialized DIA matrix (\"\" or \"dia\"); LinearOp's operator argument goes in ROADMAP item 4(b)", op))
	}
	return c.Linear(n, numDiags, rho, seed)
}
