package bench

import (
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/matrix"
	"aiac/internal/problems"
)

// TestSpinEvents pins what lazy spin (SPIN.md) is for: an asynchronous rank
// behind ADSL spins through millions of reused iterations, and the
// simulator must not pay an event for each of them — stepping every
// iteration costs about two, three over a receive charge it starves. The
// adsl-spin reference cell at a quarter of its size (…/async/adsl/p4/n3000:
// 1.36 M iterations) must run at most 0.06 events per iteration on pm2 and
// on omniorb — 0.040 and 0.037 when this was written; 0.120 and 0.080 when
// a rank spun only on an idle CPU, and not over a charge it preempts unrun
// (CPU.RunsAlone) — so a silent return to per-iteration stepping fails here
// and not only in the benchmark.
func TestSpinEvents(t *testing.T) {
	const maxPerIter = 0.06
	for _, env := range []string{"pm2", "omniorb"} {
		sim := des.New()
		grid, err := matrix.NewGrid(sim, "adsl", 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := matrix.NewEnv(grid, env, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		prob := problems.NewLinear(3000, 12, 0.85, refSeed)
		rpt := aiac.Run(grid, e, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-5, MaxIters: 3000000})
		perIter := float64(sim.Events()) / float64(rpt.TotalIters())
		t.Logf("%s: %d events over %d iterations: %.3f per iteration", env, sim.Events(), rpt.TotalIters(), perIter)
		if perIter > maxPerIter {
			t.Errorf("%s: %d events over %d iterations: %.3f per iteration, want at most %.2f", env, sim.Events(), rpt.TotalIters(), perIter, maxPerIter)
		}
	}
}
