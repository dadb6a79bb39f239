package aiac_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aiac/internal/aiac"
	"aiac/internal/problems"
)

// Property: for random systems and partition counts, every dependency
// segment of every consumer is exactly covered (no gaps, no overlap) by
// the plan targets pointing at it.
func TestSendPlanCoversDependenciesExactly(t *testing.T) {
	f := func(seed int64, rawRanks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2000)
		nranks := 2 + int(rawRanks)%6
		prob := problems.NewLinear(n, 4+rng.Intn(10), 0.7, seed)
		bounds := prob.PartitionBounds(nranks)
		plan := aiac.BuildSendPlan(prob, bounds)

		// Collect, per consumer, the covered indices.
		covered := make([]map[int]int, nranks)
		for r := range covered {
			covered[r] = make(map[int]int)
		}
		for _, targets := range plan.Targets {
			for _, tg := range targets {
				for i := tg.Seg.Lo; i < tg.Seg.Hi; i++ {
					covered[tg.To][i]++
				}
				// A consumer's channels are its RecvCount keys from
				// FirstKey on (the engine indexes its tables so).
				if k := tg.Key - plan.FirstKey[tg.To]; k < 0 || k >= plan.RecvCount[tg.To] {
					return false
				}
			}
		}
		for consumer := 0; consumer < nranks; consumer++ {
			for _, dep := range prob.DepsFor(consumer, bounds) {
				for i := dep.Lo; i < dep.Hi; i++ {
					if covered[consumer][i] != 1 {
						return false
					}
				}
			}
			// Nothing outside the declared dependencies is covered.
			total := 0
			for _, dep := range prob.DepsFor(consumer, bounds) {
				total += dep.Len()
			}
			if len(covered[consumer]) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: segments in a plan never cross ownership boundaries.
func TestSendPlanSegmentsRespectOwnership(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 300 + rng.Intn(1500)
		nranks := 2 + rng.Intn(6)
		prob := problems.NewLinear(n, 6, 0.6, seed)
		bounds := prob.PartitionBounds(nranks)
		plan := aiac.BuildSendPlan(prob, bounds)
		for owner, targets := range plan.Targets {
			for _, tg := range targets {
				if tg.Seg.Lo < bounds[owner] || tg.Seg.Hi > bounds[owner+1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentLen(t *testing.T) {
	if (aiac.Segment{Lo: 3, Hi: 10}).Len() != 7 {
		t.Fatal("segment length wrong")
	}
}

func TestModeString(t *testing.T) {
	if aiac.Async.String() != "async" || aiac.Sync.String() != "sync" {
		t.Fatal("mode strings wrong")
	}
}
