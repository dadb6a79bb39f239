package matrix

import (
	"fmt"
	"time"

	"aiac/internal/protocol"
	"aiac/internal/report"
)

// This file gives every cell of a sweep a *content address* — the cache
// key under which its result lands in the JSONL sidecar (report.Sidecar*)
// and under which a resumed sweep may reuse it. The address covers
// everything that determines the measurement: the cell key itself, the
// selected problem's full parameter set, the jitter seed and repetition
// count, the report schema, the resolved protocol constants, and (for
// native cells) the wall-clock guard. Change any of them and the address
// changes, so a resumed sweep re-executes exactly the cells whose inputs
// moved and reuses the rest verbatim.

// The addrstable analyzer (internal/lint) checks that every field of the
// parameter structs below is folded into the address. Two exemptions are
// protocol tunables that every driver resolves from the per-problem
// parameters already addressed above, so they carry no independent input;
// the third is a field with one legal value:
//
//lint:addrstable-exempt Params.Eps — protocol eps is set from the selected problem's Eps (LinearParams/ChemParams), which is in the problem segment of the address
//lint:addrstable-exempt Params.MaxIters — protocol iteration cap is set from the selected problem's MaxIters, which is in the problem segment of the address
//lint:addrstable-exempt LinearParams.Operator — only "" or "dia" runs (any other value errors every linear cell), so it selects nothing an address could tell apart; the field goes in ROADMAP item 4(b)

// cellCacheKey builds the cell's content address. spec must already be
// resolved (withDefaults), matching what Run executes.
func cellCacheKey(c Cell, spec Spec, reps int, seed int64, timeout time.Duration) string {
	var prob string
	switch c.Problem {
	case "linear":
		lp := spec.Linear
		prob = fmt.Sprintf("diags=%d,rho=%g,eps=%g,maxiters=%d,matseed=%d",
			lp.Diags, lp.Rho, lp.Eps, lp.MaxIters, lp.Seed)
	case "chem":
		cp := spec.Chem
		prob = fmt.Sprintf("step=%g,horizon=%g,eps=%g,gmrestol=%g",
			cp.StepS, cp.HorizonS, cp.Eps, cp.GmresTol)
	default:
		prob = "unknown"
	}
	// The wall-clock guard changes what a native cell can report (a slow
	// solve stalls under a tight guard); simulated cells ignore it.
	to := "-"
	if !SimulatedBackend(c.backendName()) {
		t := timeout
		if t <= 0 {
			t = DefaultNativeTimeout
		}
		to = t.String()
	}
	pp := protocol.Params{}.WithDefaults()
	return fmt.Sprintf("schema=%d|cell=%s|%s{%s}|reps=%d|jitterseed=%d|grace=%dns|heartbeat=%dns|persist=%d|timeout=%s",
		report.Schema, c.Key(), c.Problem, prob, reps, seed,
		int64(pp.Grace), int64(pp.Heartbeat), pp.PersistIters, to)
}

// indexPrior maps an earlier sweep's content addresses to their reusable
// results. Errored rows are left out — a failed cell must re-run.
func indexPrior(rows []report.SidecarRow) map[string]report.Result {
	p := make(map[string]report.Result)
	// In file order, so later rows (a resumed sweep appending to its
	// predecessor's sidecar) supersede earlier ones.
	for _, row := range rows {
		if row.Result.Error == "" {
			p[row.CacheKey] = row.Result
		}
	}
	return p
}
