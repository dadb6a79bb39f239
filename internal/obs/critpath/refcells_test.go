package critpath_test

// The repo benchmark's three reference cells at full size — the adsl-spin,
// grid-dynamics and sync-exchange workloads' own — run once per test binary
// for TRACE.md, MSGPATH.md and SPIN.md.

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/matrix"
	"aiac/internal/obs/critpath"
	"aiac/internal/problems"
	"aiac/internal/scenario"
	"aiac/internal/trace"
)

const refSeed = 20040426

var refCells = []matrix.Cell{
	{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear", Procs: 4, Size: 12000, Scenario: "static"},
	{Env: "pm2", Mode: aiac.Async, Grid: "3site", Problem: "linear", Procs: 8, Size: 12000, Scenario: "node-churn"},
	{Env: "omniorb", Mode: aiac.Sync, Grid: "3site", Problem: "linear", Procs: 64, Size: 19200, Scenario: "static"},
}

func cellName(c matrix.Cell) string {
	name := fmt.Sprintf("%s/%s/%s/p%d/n%d", c.Env, c.Mode, c.Grid, c.Procs, c.Size)
	if c.Scenario != "static" {
		name += "/" + c.Scenario
	}
	return name
}

// refRun is one traced run of a reference cell.
type refRun struct {
	events      uint64
	fingerprint string // see fingerprintCell
	iters       int
	tr          *trace.Collector
	attr        *critpath.Attribution
}

// fingerprintCell runs repetition 0 of c traced, wired as matrix.runOnce
// wires it, and hashes everything virtual about the run: the report, every
// span, message and wait of the trace with their timestamps, and the
// critical-path attribution.
func fingerprintCell(c matrix.Cell) (refRun, error) {
	lp := matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000, Seed: refSeed}
	scen, err := scenario.ByName(c.Scenario)
	if err != nil {
		return refRun{}, err
	}
	sim := des.New()
	grid, err := matrix.NewGrid(sim, c.Grid, c.Procs)
	if err != nil {
		return refRun{}, err
	}
	grid.Net.SetJitter(0.02, refSeed)
	tr := trace.New()
	env, err := matrix.NewEnv(grid, c.Env, true, tr)
	if err != nil {
		return refRun{}, err
	}
	rt := scenario.Deploy(scen, grid)
	prob := problems.NewLinear(c.Size, lp.Diags, lp.Rho, lp.Seed)
	rpt := aiac.Run(grid, env, prob, aiac.Config{
		Mode: c.Mode, Eps: lp.Eps, MaxIters: lp.MaxIters, Trace: tr, Dynamics: rt,
	})
	attr, ok := critpath.Analyze(tr, rpt.Elapsed)
	if !ok {
		return refRun{}, fmt.Errorf("%s: trace not attributable", cellName(c))
	}
	h := sha256.New()
	fmt.Fprintln(h, rpt.Elapsed, rpt.Start, rpt.End, rpt.ItersPerRank, rpt.Reason, rpt.StateMsgs,
		rpt.StopRebroadcasts, rpt.Stalled, rpt.Restarts, rpt.TaintedRestarts, rpt.Heartbeats, rpt.ReconfirmRounds, rpt.Reconverge)
	fmt.Fprintln(h, rpt.X)
	fmt.Fprintln(h, grid.Net.StatsSnapshot())
	fmt.Fprintln(h, tr.Spans)
	fmt.Fprintln(h, tr.Msgs)
	fmt.Fprintln(h, tr.Waits)
	fmt.Fprintln(h, attr.Total, attr.ByCat)
	for _, s := range attr.Segs {
		via := s.Via
		s.Via = nil // a pointer: hash what it points to
		fmt.Fprintln(h, s)
		if via != nil {
			fmt.Fprintln(h, *via)
		}
	}
	run := refRun{events: sim.Events(), fingerprint: fmt.Sprintf("%x", h.Sum(nil))[:16],
		iters: rpt.TotalIters(), tr: tr, attr: attr}
	sim.Shutdown()
	return run, nil
}

var refRuns = sync.OnceValues(func() (runs []refRun, err error) {
	for _, c := range refCells {
		run, err := fingerprintCell(c)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
})
