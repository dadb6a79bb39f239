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
// GradientStep) read the matrix and right-hand side and write only
// the iterate and caller-owned scratch, and the per-run mutable state
// (scratch buffers, weights) lives on the per-call problem structs, never
// on the shared arrays. The cache enforces the contract at runtime: every
// entry is checksummed while it is built (sparse.NewSystemSum), re-verified
// on every retrieval while small enough for that to be cheap
// (verifyOnHitLimit), and re-verified in full when it is freed — so code
// that mutates a shared system panics at the next cache hit, or fails the
// sweep through Verify, instead of silently corrupting concurrent cells.
//
// An entry is freed at its last declared use. Its users declare
// themselves up front (Declare: matrix.Run counts the linear jobs of a
// phase that will read each system) and release their use when they end
// (Release); the release that leaves no use re-checksums the system,
// drops it and keeps any mismatch for Verify to report. A sweep that runs
// its repetitions round by round therefore holds about one system per
// worker, not one per repetition (352 MB each at n = 2,000,000). A
// retrieval of a key nobody declared — or whose uses are all released —
// builds a system for its caller alone, as the nil cache does.
//
// A nil *Cache is valid and simply builds fresh systems on every call —
// the uncached constructor NewLinear is a thin wrapper over it.
type Cache struct {
	mu      sync.Mutex
	linear  map[LinearKey]*linearEntry
	stats   CacheStats
	mutated error // the first mutation found when an entry was freed
}

// ErrMutated marks an integrity failure of the cache: a solver wrote to
// shared read-only problem data. Callers distinguish it (errors.Is) from
// operational errors because it taints the sweep's measurements, not just
// its bookkeeping.
var ErrMutated = errors.New("shared problem data was mutated")

// NewCache returns an empty problem cache.
func NewCache() *Cache {
	return &Cache{linear: make(map[LinearKey]*linearEntry)}
}

// LinearKey identifies one generated sparse system: the full parameter
// set of sparse.NewSystemSum, so entries can never alias across sizes, band
// counts, dominance ratios, or seeds (and therefore never across
// repetitions, which perturb the seed).
type LinearKey struct {
	N, Diags int
	Rho      float64
	Seed     int64
}

func (k LinearKey) String() string {
	return fmt.Sprintf("n=%d diags=%d rho=%g seed=%d", k.N, k.Diags, k.Rho, k.Seed)
}

// linearEntry is one declared system. uses counts the declared uses not
// yet released; the first retrieval sets started and builds the system,
// closing ready when the build ends (also when it panics, leaving a nil
// a for the other retrievals to refuse).
type linearEntry struct {
	uses    int
	started bool
	ready   chan struct{}
	a       *sparse.DIA
	b       []float64
	xtrue   []float64
	sum     uint64
	elems   int
}

// CacheStats counts a cache's retrievals and the systems it holds.
type CacheStats struct {
	Hits     int // retrievals served by an already-built system
	Misses   int // retrievals that built one, declared or not
	Held     int // systems built and not yet freed
	PeakHeld int // the most systems held at once
}

// Stats reports the cache's counts so far.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Declare announces uses more users of k's system, each of which ends its
// use with one Release, whether or not it retrieves the system. The system
// is built at the first retrieval and freed at the last release. No-op on
// a nil cache.
func (c *Cache) Declare(k LinearKey, uses int) {
	if c == nil || uses <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.linear[k]
	if e == nil {
		e = &linearEntry{ready: make(chan struct{})}
		c.linear[k] = e
	}
	e.uses += uses
}

// Release ends one declared use of k's system, whether or not it was
// retrieved. The last release re-checksums a built system — whatever its
// size — records a mismatch for Verify, and drops the entry. Releasing a
// key with no declared use left panics: the counts no longer say when the
// system may go. No-op on a nil cache.
func (c *Cache) Release(k LinearKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	e := c.linear[k]
	if e == nil {
		c.mu.Unlock()
		panic(fmt.Sprintf("problems: released the cached sparse system (%v) more often than its uses were declared", k))
	}
	if e.uses--; e.uses > 0 {
		c.mu.Unlock()
		return
	}
	delete(c.linear, k)
	if e.started {
		c.stats.Held--
	}
	c.mu.Unlock()
	if !e.started {
		return
	}
	<-e.ready
	if e.a != nil && e.checksum() != e.sum {
		c.mu.Lock()
		if c.mutated == nil {
			c.mutated = fmt.Errorf("problems: cached sparse system (%v): %w", k, ErrMutated)
		}
		c.mu.Unlock()
	}
}

// verifyOnHitLimit bounds the entry size (in stored float64s) that is
// re-checksummed on every retrieval. The eight-lane checksum on two cores
// (sparse.SystemSum) took 1.6–2.5 ms for kernel-large's 250 000-row entry
// (2.71M floats: 2.21M of bands, 0.5M of b and xTrue; under the limit) on
// a shared 2-core Xeon. At paper scale (n=2,000,000, 31 bands: 40.0M
// floats of bands, 44.0M in all) it took 37–39 ms per hit, each hit
// repeating it — such entries are verified once, when they are freed or
// by Verify.
const verifyOnHitLimit = 1 << 22

// sharedSystem returns the memoized (A, b, xTrue) for the key, building it
// on first use; an undeclared key gets a fresh system of its own.
// Retrieving a small entry re-verifies its checksum (but for the call that
// built it and took that checksum) and panics on a mismatch: a mutated
// shared system would corrupt every concurrent cell reading it, so failing
// loudly at the cache boundary is the only safe response. Entries above
// verifyOnHitLimit are checked when freed, and by Verify.
func (c *Cache) sharedSystem(k LinearKey) (*sparse.DIA, []float64, []float64) {
	if c == nil {
		a, b, xt, _ := sparse.NewSystemSum(k.N, k.Diags, k.Rho, k.Seed)
		return a, b, xt
	}
	c.mu.Lock()
	e := c.linear[k]
	build := e != nil && !e.started
	switch {
	case e == nil:
		c.stats.Misses++
	case build:
		e.started = true
		c.stats.Misses++
		c.stats.Held++
		c.stats.PeakHeld = max(c.stats.PeakHeld, c.stats.Held)
	default:
		c.stats.Hits++
	}
	c.mu.Unlock()
	if e == nil {
		a, b, xt, _ := sparse.NewSystemSum(k.N, k.Diags, k.Rho, k.Seed)
		return a, b, xt
	}
	if build {
		defer close(e.ready)
		e.a, e.b, e.xtrue, e.sum = sparse.NewSystemSum(k.N, k.Diags, k.Rho, k.Seed)
		e.elems = e.a.StoredFloats() + len(e.b) + len(e.xtrue)
		return e.a, e.b, e.xtrue
	}
	<-e.ready
	if e.a == nil {
		panic(fmt.Sprintf("problems: cached sparse system (%v) failed to assemble in another retrieval", k))
	}
	if e.elems <= verifyOnHitLimit {
		if got := e.checksum(); got != e.sum {
			panic(fmt.Sprintf("problems: cached sparse system (%v) was mutated: a solver wrote to shared read-only data", k))
		}
	}
	return e.a, e.b, e.xtrue
}

// Verify reports the first mutation found: one recorded when an entry was
// freed, or else one in an entry still held, which it re-checksums —
// including those too large to check per retrieval. A sweep calls it once
// at the end, so even at paper scale a solver that wrote to shared data
// cannot go unnoticed.
func (c *Cache) Verify() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	err := c.mutated
	held := make(map[LinearKey]*linearEntry)
	for k, e := range c.linear {
		if e.started { // else never built
			held[k] = e
		}
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	for k, e := range held {
		<-e.ready
		if e.a != nil && e.checksum() != e.sum {
			return fmt.Errorf("problems: cached sparse system (%v): %w", k, ErrMutated)
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
	a, b, xt := c.sharedSystem(LinearKey{N: n, Diags: numDiags, Rho: rho, Seed: seed})
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
