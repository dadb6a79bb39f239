package aiac_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/pm2"
	"aiac/internal/ladder"
	"aiac/internal/netsim"
	"aiac/internal/problems"
	"aiac/internal/scenario"
)

// hidden embeds only aiac.Problem, so it hides the UpdateFlops of the
// problem it wraps: every Update of a solve of it runs inline.
type hidden struct{ aiac.Problem }

// counted is a Linear that counts its Updates, on whichever goroutine.
type counted struct {
	*problems.Linear
	updates atomic.Int64
}

func (c *counted) Update(rank int, bounds []int, x []float64) (float64, float64) {
	c.updates.Add(1)
	return c.Linear.Update(rank, bounds, x)
}

// atLeastTwoProcs lets the helper start however the test binary was run.
func atLeastTwoProcs(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// overlapSolve solves prob on two pm2 ranks of a machine class whose
// iterations last about 0.1 s of virtual time at 18 000-row blocks, so that
// node-churn's first crash (0.7 s) and lossy-wan's bursts land mid-solve.
func overlapSolve(prob aiac.Problem, cfg aiac.Config, scen string) *aiac.Report {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 2, cluster.MachineClass{Name: "slow", MFlops: 5}, netsim.Ethernet100)
	env := pm2.MustNew(grid, pm2.Sparse, nil)
	if scen != "static" {
		s, err := scenario.ByName(scen)
		if err != nil {
			panic(err)
		}
		cfg.Dynamics = scenario.Deploy(s, grid)
	}
	return aiac.Run(grid, env, prob, cfg)
}

// sameReport fails t unless a and b are equal bit for bit.
func sameReport(t *testing.T, a, b *aiac.Report) {
	t.Helper()
	if !slices.Equal(reportBits(a), reportBits(b)) {
		t.Fatal("the iterates differ")
	}
	ac, bc := *a, *b
	ac.X, bc.X = nil, nil
	if !reflect.DeepEqual(ac, bc) {
		t.Fatalf("reports differ:\n%+v\n%+v", ac, bc)
	}
}

func reportBits(r *aiac.Report) []uint64 {
	bits := make([]uint64, len(r.X))
	for i, v := range r.X {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// An overlapped solve is the inline one: the same iterate bit for bit, the
// same iterations, virtual time, stop reason and protocol counters, in
// both modes, across a crash (Restart joins) and under loss; and its helper
// has exited when Run returns.
func TestOverlapMatchesInline(t *testing.T) {
	atLeastTwoProcs(t)
	prob := problems.NewLinear(36000, 12, 0.6, 3)
	if f := prob.UpdateFlops(0, prob.PartitionBounds(2)); f < aiac.OverlapMinFlops {
		t.Fatalf("%g flops a block is below the threshold %d", f, aiac.OverlapMinFlops)
	}
	for _, c := range []struct {
		mode aiac.Mode
		scen string
	}{{aiac.Sync, "static"}, {aiac.Async, "static"}, {aiac.Async, "node-churn"}, {aiac.Async, "lossy-wan"}} {
		t.Run(c.mode.String()+"/"+c.scen, func(t *testing.T) {
			cfg := aiac.Config{Mode: c.mode, Eps: 1e-7}
			inline := overlapSolve(hidden{prob}, cfg, c.scen)
			if c.scen == "node-churn" && inline.Restarts == 0 {
				t.Fatal("no rank restarted")
			}
			if !inline.Converged() {
				t.Fatalf("inline solve: %s", inline.Reason)
			}
			// Whether the helper starts an Update before its join claims it
			// is the host scheduler's call: solve until it has run one.
			for try := 1; ; try++ {
				before, alive := aiac.HelperUpdates(), runtime.NumGoroutine()
				sameReport(t, overlapSolve(prob, cfg, c.scen), inline)
				if n := runtime.NumGoroutine(); n != alive {
					t.Fatalf("%d goroutines after the solve, %d before: the helper outlived it", n, alive)
				}
				if aiac.HelperUpdates() > before {
					break
				}
				if try == 10 {
					t.Fatal("the helper ran no Update in ten solves")
				}
			}
		})
	}
}

// goroutineCount is a Linear that notes the most goroutines alive during
// any of its Updates.
type goroutineCount struct {
	*problems.Linear
	most int
}

func (g *goroutineCount) Update(rank int, bounds []int, x []float64) (float64, float64) {
	g.most = max(g.most, runtime.NumGoroutine())
	return g.Linear.Update(rank, bounds, x)
}

// A solve whose blocks are all below the threshold starts no goroutine.
func TestOverlapBelowThresholdStartsNothing(t *testing.T) {
	atLeastTwoProcs(t)
	prob := &goroutineCount{Linear: problems.NewLinear(6000, 12, 0.6, 3)}
	if f := prob.UpdateFlops(0, prob.PartitionBounds(2)); f >= aiac.OverlapMinFlops {
		t.Fatalf("%g flops a block is not below the threshold", f)
	}
	before := runtime.NumGoroutine()
	overlapSolve(prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7}, "static")
	if prob.most > before {
		t.Fatalf("%d goroutines during the solve, %d before it", prob.most, before)
	}
}

// miscounted returns one flop more than it states.
type miscounted struct{ *problems.Linear }

func (m miscounted) Update(rank int, bounds []int, x []float64) (float64, float64) {
	res, flops := m.Linear.Update(rank, bounds, x)
	return res, flops + 1
}

// An overlapped Update whose flops differ from its UpdateFlops panics at
// the join, on the solve's goroutine.
func TestOverlapMiscountPanics(t *testing.T) {
	atLeastTwoProcs(t)
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "UpdateFlops stated") {
			t.Fatalf("recovered %v; want the flop-count panic", v)
		}
	}()
	overlapSolve(miscounted{problems.NewLinear(36000, 12, 0.6, 3)}, aiac.Config{Mode: aiac.Sync, Eps: 1e-7}, "static")
}

// The overlapped path allocates nothing per Update: beside the inline
// solve's allocations, a solve of 320 iterations allocates what one of 20
// does (the helper and its channels), give or take the runtime's own
// descriptors for goroutines and blocked channel operations, which it
// recycles but may allocate on a cold cache.
func TestOverlapAllocatesNothingPerUpdate(t *testing.T) {
	atLeastTwoProcs(t)
	prob := problems.NewLinear(36000, 12, 0.6, 3)
	extra := func(iters int) int64 {
		allocs := func(p aiac.Problem) int64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			overlapSolve(p, aiac.Config{Mode: aiac.Sync, Eps: 1e-300, MaxIters: iters}, "static")
			runtime.ReadMemStats(&m1)
			return int64(m1.Mallocs - m0.Mallocs)
		}
		return allocs(prob) - allocs(hidden{prob})
	}
	extra(20)
	short, long := extra(20), extra(320)
	if d := long - short; d <= -30 || d >= 30 {
		t.Errorf("overlapping allocates %d more than inline over 20 iterations, %d over 320: %.2f an iteration", short, long, float64(d)/300)
	}
}

// overlapShapes are the block sizes of OVERLAP.md, each solved on two
// ranks: the benchmark's sync-exchange, grid-dynamics and adsl-spin
// blocks, three that bracket the threshold, and kernel-large's.
var overlapShapes = []int{300, 1500, 3000, 10000, 20000, 40000, 125000}

// overlapCell is one timed pair of solves of a shape — sync, then async —
// on the kernel-large cell's environment and grid: two pm2 ranks on the
// local cluster's 100 Mb/s Ethernet.
func overlapCell(prob aiac.Problem) (ms float64, reps [2]*aiac.Report) {
	t0 := time.Now()
	for i, mode := range []aiac.Mode{aiac.Sync, aiac.Async} {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
		reps[i] = aiac.Run(grid, pm2.MustNew(grid, pm2.Sparse, nil), prob, aiac.Config{Mode: mode, Eps: 1e-5})
	}
	return float64(time.Since(t0).Microseconds()) / 1e3, reps
}

// overlapSpec is what TestLadderOverlap measures in OVERLAP.md.
func overlapSpec() ladder.Spec {
	var rows []string
	for _, n := range overlapShapes {
		rows = append(rows, fmt.Sprintf("%d | inline", n), fmt.Sprintf("%d | shipped", n))
	}
	return ladder.Spec{Doc: "OVERLAP.md", Regions: []string{"machine"}, Tables: []ladder.Table{{
		Anchor: "| rows |", Key: []string{"rows", "variant"}, Rows: rows,
		Cols: []string{"valid", "inline ms", "ms", "speedup", "overlapped"},
	}}}
}

// TestLadderOverlap checks OVERLAP.md and, under LADDER_GATE=1 or
// LADDER_WRITE=1, measures it: for every shape, the inline solve (the
// problem behind hidden) and the shipped selection, alternating, each
// repeated for at least half a second and five times; a shipped row is
// valid when every one of its reports is bit-identical to the inline one.
// The gate: every measured row valid, and the shipped selection at least
// 1.25x inline on the 125 000-row shape — skipped, and said so, when
// GOMAXPROCS is 1, where nothing can overlap.
func TestLadderOverlap(t *testing.T) {
	doc := ladder.Open(t, overlapSpec())
	if !ladder.Gate(t) {
		return
	}
	tab := doc.Table("| rows |")
	for _, n := range overlapShapes {
		prob := &counted{Linear: problems.NewLinear(2*n, 12, 0.85, 20040426)}
		var inline, shipped []float64
		valid := true
		var updates, helped int64
		for k := 0; k < 5 || slices.Max(inline)*float64(k) < 500; k++ {
			ms, want := overlapCell(hidden{prob})
			inline = append(inline, ms)
			u0, h0 := prob.updates.Load(), aiac.HelperUpdates()
			ms, got := overlapCell(prob)
			shipped = append(shipped, ms)
			updates, helped = updates+prob.updates.Load()-u0, helped+aiac.HelperUpdates()-h0
			for i := range got {
				valid = valid && slices.Equal(reportBits(got[i]), reportBits(want[i]))
				got[i].X, want[i].X = nil, nil
				valid = valid && reflect.DeepEqual(got[i], want[i])
			}
		}
		in, ms := ladder.Median(inline), ladder.Median(shipped)
		for _, r := range []struct {
			variant      string
			valid        bool
			ms, overlaps float64
		}{{"inline", true, in, 0}, {"shipped", valid, ms, float64(helped) / float64(updates)}} {
			key := fmt.Sprintf("%d | %s", n, r.variant)
			tab.Setf(key, "valid", "%d", ladder.Bit(r.valid))
			tab.Setf(key, "inline ms", "%.2f", in)
			tab.Setf(key, "ms", "%.2f", r.ms)
			tab.Setf(key, "speedup", "%.3f", in/r.ms)
			tab.Setf(key, "overlapped", "%.0f %%", 100*r.overlaps)
		}
		if !valid {
			t.Errorf("%d rows: a report of the shipped selection differs from the inline solve's", n)
		}
		if n == 125000 {
			switch {
			case runtime.GOMAXPROCS(0) == 1:
				t.Log("speed gate skipped: GOMAXPROCS is 1")
			case in/ms < 1.25:
				t.Errorf("the shipped selection is %.2fx inline on 125 000-row blocks; want at least 1.25x", in/ms)
			}
		}
	}
	doc.Region("machine", fmt.Sprintf("on a machine with GOMAXPROCS %d (%s).", runtime.GOMAXPROCS(0), runtime.Version()))
	doc.Finish()
}
