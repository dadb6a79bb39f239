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
// iteration costs about two. The adsl-spin reference cell at a quarter of
// its size (pm2/async/adsl/p4/n3000: 1.36 M iterations, 0.12 events per
// iteration when this was written) must run at most 0.2 events per
// iteration, so a silent return to per-iteration stepping fails here and
// not only in the benchmark.
func TestSpinEvents(t *testing.T) {
	const maxPerIter = 0.2
	sim := des.New()
	grid, err := matrix.NewGrid(sim, "adsl", 4)
	if err != nil {
		t.Fatal(err)
	}
	env, err := matrix.NewEnv(grid, "pm2", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	prob := problems.NewLinear(3000, 12, 0.85, refSeed)
	rpt := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-5, MaxIters: 3000000})
	perIter := float64(sim.Events()) / float64(rpt.TotalIters())
	t.Logf("%d events over %d iterations: %.3f per iteration", sim.Events(), rpt.TotalIters(), perIter)
	if perIter > maxPerIter {
		t.Errorf("%d events over %d iterations: %.3f per iteration, want at most %.1f", sim.Events(), rpt.TotalIters(), perIter, maxPerIter)
	}
}
