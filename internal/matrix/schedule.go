package matrix

import (
	"sort"

	"aiac/internal/aiac"
)

// Makespan-aware scheduling: a round's wall time is bounded below by its
// longest repetition, and a worker pool that starts that repetition last
// tails on it while every other worker idles. Run feeds each phase to the
// pool one repetition round at a time (every cell's repetition 0, then
// every cell's repetition 1, ...), and within each round
// longest-expected-first, so the giant cells (the asynchronous ADSL
// solves, whose fast ranks spin through millions of iterations) start
// each round and the short local-grid cells pack into the gaps. No
// barrier separates the rounds: a worker done with round r starts round
// r+1 while the others finish. The result set is still assembled in
// enumeration order, so scheduling never changes output, only wall time.

// expectedCost estimates a cell's host cost for scheduling, in rough host
// seconds: procs×size scaled by how expensive the cell's grid and mode are
// to simulate (the ADSL uplink forces millions of asynchronous iterations).
// The environment does not enter: it moves a cell's host cost far less
// than grid and mode do (the default sweep's three async-ADSL cells take
// 1.5 to 2.1 s each on a two-core host, its sync-ADSL cells 0.02 s).
func expectedCost(c Cell) float64 {
	cost := float64(c.Procs) * float64(c.Size) * 3e-5
	switch c.Grid {
	case "adsl":
		cost *= 40
	case "3site":
		cost *= 10
	case "multiproto":
		cost *= 2
	}
	if c.Mode == aiac.Async {
		cost *= 3
	}
	return cost
}

// scheduleLongestFirst orders the phase's cell indices — the order of
// every round — by descending expected cost, stably, so equal-cost cells
// keep their enumeration order.
func scheduleLongestFirst(idx []int, cells []Cell) {
	sort.SliceStable(idx, func(a, b int) bool {
		return expectedCost(cells[idx[a]]) > expectedCost(cells[idx[b]])
	})
}
