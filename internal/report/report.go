// Package report persists and renders the results of experiment-matrix
// sweeps (internal/matrix): one Result per experiment cell, collected into
// a Set that round-trips through JSON (`BENCH_*.json` files, one schema)
// so runs can be compared across commits. It is the one report form: the
// default sweep, the scenario and native sweeps and the paper's own tables
// (matrix.Preset) all render through the views below.
//
// The rendering follows the layout of the paper's evaluation (§5): the
// aligned table groups cells by (problem, grid, procs, size) and derives
// the per-group "ratio" column of Tables 2-3 — the synchronous baseline's
// time over each version's time, so the asynchronous versions' advantage
// reads directly as a factor > 1. When a sweep varies the processor count,
// ScalingTable derives the speedup and efficiency curves of Figure 3.
// Diff compares two persisted sets cell by cell for regression checks.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Schema is the persisted-file format version, and the only one read:
// ReadFile refuses a file written at any other, naming the command that
// regenerates it. A row carries the measurement, the protocol
// observability counters and constants, the convergence red-flag verdicts
// (Flags, from internal/obs's trajectory detectors) and the causal
// critical-path attribution (Attr*Sec, from internal/obs/critpath). The
// number is part of every sidecar content address (matrix.cellCacheKey),
// so it moves only with the shape or meaning of Result.
const Schema = 4

// Result is the outcome of one experiment cell, aggregated over its
// repetitions.
type Result struct {
	// Env, Mode, Grid, Problem, Procs, Size, Scenario and Backend
	// identify the cell. An empty Scenario means "static" and an empty
	// Backend means "sim".
	Env      string `json:"env"`
	Mode     string `json:"mode"`
	Grid     string `json:"grid"`
	Problem  string `json:"problem"`
	Procs    int    `json:"procs"`
	Size     int    `json:"size"`
	Scenario string `json:"scenario,omitempty"`
	// Backend tells what executed the cell: "sim" or its synonym "sim-fast"
	// (discrete-event simulation, virtual time) or a native transport ("chan", "tcp" —
	// wall-clock goroutine ranks, internal/backend).
	Backend string `json:"backend,omitempty"`

	// Reps is the number of repetitions aggregated into this result.
	Reps int `json:"reps"`
	// TimeSec is the median simulated wall time over the repetitions, in
	// virtual seconds (the paper's execution-time metric).
	TimeSec float64 `json:"time_sec"`
	// MinTimeSec is the fastest repetition.
	MinTimeSec float64 `json:"min_time_sec"`
	// Iters is the total iteration count over all ranks (median rep).
	Iters int `json:"iters"`
	// Messages and Bytes are the network traffic counters of the median
	// rep; InterSite counts the messages that crossed a site uplink.
	Messages  uint64 `json:"messages"`
	Bytes     uint64 `json:"bytes"`
	InterSite uint64 `json:"inter_site"`
	// Residual is the max-norm error against the known true solution
	// (sparse linear problem only; 0 for problems without a closed-form
	// truth).
	Residual float64 `json:"residual"`
	// Converged reports whether every solve detected convergence rather
	// than hitting the iteration cap.
	Converged bool `json:"converged"`
	// Stalled reports that the simulation deadlocked before finishing —
	// a synchronous exchange whose partner crashed or whose messages were
	// lost never completes (median rep).
	Stalled bool `json:"stalled,omitempty"`
	// ReconvergeSec is the virtual time from the last perturbation the
	// run experienced to convergence — how long the algorithm needed to
	// re-detect convergence once the grid stopped changing (median rep;
	// 0 for static scenarios).
	ReconvergeSec float64 `json:"reconverge_sec,omitempty"`
	// Dropped counts network messages lost to the scenario's loss model
	// or to crashed nodes (median rep).
	Dropped uint64 `json:"dropped,omitempty"`
	// Restarts counts rank crash/restart cycles observed (median rep).
	Restarts int `json:"restarts,omitempty"`
	// WallSec is the measured wall-clock execution time of a native cell
	// (median rep). Native cells also carry it in TimeSec — wall time is
	// their execution-time metric — so ratio columns work unchanged;
	// WallSec stays 0 for simulated cells, whose TimeSec is virtual.
	WallSec float64 `json:"wall_sec,omitempty"`
	// Heartbeats, StopRebroadcasts and ReconfirmRounds are the protocol
	// observability counters of the median rep (internal/protocol):
	// confirmed-state re-sends, the coordinator's post-stop stop repeats,
	// and post-crash re-confirmations. Deterministic for simulated cells,
	// so Regressions treats a drift as a protocol regression even when
	// the timing survives.
	Heartbeats       int `json:"heartbeats,omitempty"`
	StopRebroadcasts int `json:"stop_rebroadcasts,omitempty"`
	ReconfirmRounds  int `json:"reconfirm_rounds,omitempty"`
	// GraceSec, HeartbeatSec and PersistIters record the protocol
	// constants that produced the measurement (protocol.Params), so a
	// BENCH file documents which tuning its numbers belong to.
	GraceSec     float64 `json:"grace_sec,omitempty"`
	HeartbeatSec float64 `json:"heartbeat_sec,omitempty"`
	PersistIters int     `json:"persist_iters,omitempty"`
	// Flags holds the comma-separated convergence red-flag verdicts of
	// the cell's residual trajectories (internal/obs detectors:
	// "oscillation", "plateau", "restart-regression"), the union over
	// repetitions, sorted; empty when every trajectory was healthy.
	// Deterministic for simulated cells, so Regressions compares it
	// exactly.
	Flags string `json:"flags,omitempty"`
	// AttrTotalSec and the five Attr*Sec columns are the causal
	// critical-path attribution of the cell's first repetition
	// (internal/obs/critpath): every nanosecond of the end-to-end
	// convergence time charged to exactly one cause, so the five category
	// columns sum to AttrTotalSec — which equals that repetition's
	// simulated time — by construction. Compute is productive iteration
	// work; transit is asynchronous message flight the path waited on;
	// sync-wait is blocking synchronisation (barriers, lockstep
	// exchanges, reductions, including the flight time of the message
	// that released the block); protocol is confirmation/grace/recovery
	// overhead plus setup and teardown; blocked-send is time packing or
	// queuing outbound data. Zero AttrTotalSec means the cell was not
	// attributed (no trace: native cells without trace support, or the
	// global-Newton chem path, which records no compute spans).
	AttrTotalSec       float64 `json:"attr_total_sec,omitempty"`
	AttrComputeSec     float64 `json:"attr_compute_sec,omitempty"`
	AttrTransitSec     float64 `json:"attr_transit_sec,omitempty"`
	AttrSyncWaitSec    float64 `json:"attr_sync_wait_sec,omitempty"`
	AttrProtocolSec    float64 `json:"attr_protocol_sec,omitempty"`
	AttrBlockedSendSec float64 `json:"attr_blocked_send_sec,omitempty"`
	// HostSec is the host wall time spent simulating this cell (all
	// repetitions). Not compared across runs.
	HostSec float64 `json:"host_sec"`
	// Attempts is set by no runner and omitted when zero. It stays only
	// because files under benchmark/ still assign it, and goes with them
	// (ROADMAP item 4(b)).
	Attempts int `json:"attempts,omitempty"`
	// Error, when non-empty, explains why the cell produced no
	// measurement (e.g. the environment refused to deploy on the grid).
	// When repetitions were requested, it names the repetition that
	// failed; Reps then records how many actually completed.
	Error string `json:"error,omitempty"`
	// Resumed marks a result reused from an earlier sweep's JSONL sidecar
	// rather than executed by this run. Runtime-only: never persisted, so
	// a resumed sweep's result file is indistinguishable from an
	// uninterrupted run's.
	Resumed bool `json:"-"`
}

// ScenarioOrStatic returns the cell's scenario, normalising the empty
// value (a Result built without one) to "static".
func (r Result) ScenarioOrStatic() string {
	if r.Scenario == "" {
		return "static"
	}
	return r.Scenario
}

// BackendOrSim returns the cell's backend, normalising the empty value
// (a Result built without one) to "sim".
func (r Result) BackendOrSim() string {
	if r.Backend == "" {
		return "sim"
	}
	return r.Backend
}

// Key identifies the cell within a set:
// env/mode/grid/problem/pP/nN/scenario/backend.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s/p%d/n%d/%s/%s", r.Env, r.Mode, r.Grid, r.Problem, r.Procs, r.Size, r.ScenarioOrStatic(), r.BackendOrSim())
}

// group is the table-grouping key: cells in the same group share a
// synchronous baseline and are directly comparable. Simulated and native
// cells never share a group — virtual and wall-clock seconds are
// different units, related only through the calibration table.
func (r Result) group() string {
	return fmt.Sprintf("%s/%s/p%d/n%d/%s/%s", r.Problem, r.Grid, r.Procs, r.Size, r.ScenarioOrStatic(), r.BackendOrSim())
}

// counterpartKey is the cell's identity with the scenario axis replaced by
// static — the cell a degradation measurement compares against.
func (r Result) counterpartKey() string {
	r.Scenario = "static"
	return r.Key()
}

// version is the paper's "version" label: mode plus environment.
func (r Result) version() string { return r.Mode + " " + r.Env }

// Set is a persisted collection of results from one sweep.
type Set struct {
	Schema int `json:"schema"`
	// CreatedAt is an RFC 3339 stamp set by the writing command.
	CreatedAt string `json:"created_at,omitempty"`
	// Command reproduces the sweep.
	Command string   `json:"command,omitempty"`
	Results []Result `json:"results"`
}

// Lookup finds the result with the given Key.
func (s *Set) Lookup(key string) (Result, bool) {
	for _, r := range s.Results {
		if r.Key() == key {
			return r, true
		}
	}
	return Result{}, false
}

// WriteFile persists the set as indented JSON.
func WriteFile(path string, s *Set) error {
	s.Schema = Schema
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

// ReadFile loads a set persisted by WriteFile at the current Schema. A
// file of any other schema is refused rather than half-compared: its rows
// lack (or may redefine) columns the gates read, and every committed file
// records the command that regenerates it.
func ReadFile(path string) (*Set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("report: parsing %s: %w", path, err)
	}
	if s.Schema != Schema {
		how := "the sweep that wrote it"
		if s.Command != "" {
			how = "`" + s.Command + "`"
		}
		return nil, fmt.Errorf("report: %s has schema %d, this binary reads schema %d only: regenerate it with %s", path, s.Schema, Schema, how)
	}
	return &s, nil
}

// Covers reports whether the set can gate a run over the given cell keys:
// an error when it holds no results, or none for any of those cells — a
// regression check that compares nothing would pass vacuously.
func (s *Set) Covers(keys []string) error {
	if len(s.Results) == 0 {
		return errors.New("the baseline holds no results")
	}
	for _, k := range keys {
		if _, ok := s.Lookup(k); ok {
			return nil
		}
	}
	return fmt.Errorf("the baseline shares no cell with this run (it holds %s, ...; the run sweeps %s, ...)", s.Results[0].Key(), keys[0])
}

// baselineTime returns the group's synchronous reference time: the
// sync-MPI cell when present (the paper's baseline version), otherwise the
// first synchronous cell of the group.
func baselineTime(group []Result) (float64, bool) {
	var t float64
	found := false
	for _, r := range group {
		if r.Mode != "sync" || r.Error != "" {
			continue
		}
		if r.Env == "mpi" {
			return r.TimeSec, true
		}
		if !found {
			t, found = r.TimeSec, true
		}
	}
	return t, found
}

// Table renders the set in the layout of the paper's Tables 2-3: one block
// per (problem, grid, procs, size) group, one line per version, with the
// ratio column relative to the group's synchronous baseline. Groups render
// in first-appearance order, each exactly once, so sets whose results are
// not stored contiguously (e.g. hand-merged files) still render correctly.
func (s *Set) Table() string {
	var b strings.Builder
	seen := make(map[string]bool)
	for _, r := range s.Results {
		g := r.group()
		if seen[g] {
			continue
		}
		seen[g] = true
		unit := ""
		if !simulated(r.BackendOrSim()) {
			unit = fmt.Sprintf(", %s backend (wall-clock)", r.BackendOrSim())
		}
		fmt.Fprintf(&b, "%s — %s grid, %d procs, n=%d, scenario %s%s\n", r.Problem, r.Grid, r.Procs, r.Size, r.ScenarioOrStatic(), unit)
		fmt.Fprintf(&b, "  %-16s %12s %8s %10s %10s %10s %10s %6s %5s %5s %5s\n",
			"version", "time", "ratio", "iters", "msgs", "MB", "residual", "conv", "hb", "rebc", "recf")
		writeGroup(&b, s.groupOf(g))
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

func (s *Set) groupOf(g string) []Result {
	var out []Result
	for _, r := range s.Results {
		if r.group() == g {
			out = append(out, r)
		}
	}
	return out
}

func writeGroup(b *strings.Builder, grp []Result) {
	base, haveBase := baselineTime(grp)
	for _, r := range grp {
		if r.Error != "" {
			fmt.Fprintf(b, "  %-16s %12s (%s)\n", r.version(), "-", r.Error)
			continue
		}
		ratio := "-"
		if haveBase && r.TimeSec > 0 {
			ratio = fmt.Sprintf("%8.2f", base/r.TimeSec)
		}
		res := fmt.Sprintf("%10.2e", r.Residual)
		if r.Residual == 0 {
			res = fmt.Sprintf("%10s", "-")
		}
		conv := fmt.Sprintf("%6v", r.Converged)
		if r.Stalled {
			conv = fmt.Sprintf("%6s", "STALL")
		}
		fmt.Fprintf(b, "  %-16s %12s %8s %10d %10d %10.1f %s %s %5d %5d %5d\n",
			r.version(), FmtSec(r.TimeSec), ratio, r.Iters, r.Messages,
			float64(r.Bytes)/1e6, res, conv,
			r.Heartbeats, r.StopRebroadcasts, r.ReconfirmRounds)
	}
}

// FlagsTable lists every cell whose convergence trajectories raised a red
// flag (internal/obs detectors), with the context needed to judge it:
// outcome, restarts, and the flag names. It returns "" when every cell in
// the set is flag-free — the healthy case prints nothing.
func (s *Set) FlagsTable() string {
	var b strings.Builder
	for _, r := range s.Results {
		if r.Flags == "" || r.Error != "" {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "Convergence red flags\n\n")
			fmt.Fprintf(&b, "  %-52s %6s %9s  %s\n", "cell", "conv", "restarts", "flags")
		}
		conv := fmt.Sprintf("%v", r.Converged)
		if r.Stalled {
			conv = "STALL"
		}
		fmt.Fprintf(&b, "  %-52s %6s %9d  %s\n", r.Key(), conv, r.Restarts, r.Flags)
	}
	return b.String()
}

// AttributionTable renders the causal critical-path attribution of every
// attributed cell in the paper's grouping: one block per (problem, grid,
// procs, size, scenario) group, one line per version, each cell's
// convergence time split into percentage shares of the five cause
// categories. This is the table that *explains* the ratio column of
// Table(): an asynchronous version wins exactly when its critical path is
// compute where the synchronous baseline's is sync-wait. It returns ""
// when no cell in the set carries an attribution (native-only sweeps).
func (s *Set) AttributionTable() string {
	var b strings.Builder
	seen := make(map[string]bool)
	for _, r := range s.Results {
		g := r.group()
		if seen[g] {
			continue
		}
		seen[g] = true
		grp := make([]Result, 0, 8)
		for _, rr := range s.groupOf(g) {
			if rr.AttrTotalSec > 0 && rr.Error == "" {
				grp = append(grp, rr)
			}
		}
		if len(grp) == 0 {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "Critical-path attribution (where each version's convergence time goes)\n\n")
		}
		fmt.Fprintf(&b, "%s — %s grid, %d procs, n=%d, scenario %s\n", r.Problem, r.Grid, r.Procs, r.Size, r.ScenarioOrStatic())
		fmt.Fprintf(&b, "  %-16s %12s %9s %9s %10s %9s %9s\n",
			"version", "total", "compute", "transit", "sync-wait", "protocol", "blk-send")
		for _, rr := range grp {
			share := func(sec float64) string {
				return fmt.Sprintf("%8.1f%%", sec/rr.AttrTotalSec*100)
			}
			fmt.Fprintf(&b, "  %-16s %12s %s %s %s %s %s\n",
				rr.version(), FmtSec(rr.AttrTotalSec),
				share(rr.AttrComputeSec), share(rr.AttrTransitSec),
				share(rr.AttrSyncWaitSec), share(rr.AttrProtocolSec),
				share(rr.AttrBlockedSendSec))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// DegradationTable compares every cell run under a dynamic scenario against
// its static counterpart in the same set: overhead (extra time over static),
// time-to-reconverge after the last perturbation, message drops, restarts,
// and stall detection. It returns "" when the set holds no such pair.
func (s *Set) DegradationTable() string {
	var b strings.Builder
	lastHeader := ""
	for _, r := range s.Results {
		if r.ScenarioOrStatic() == "static" || r.Error != "" {
			continue
		}
		static, ok := s.Lookup(r.counterpartKey())
		if !ok || static.Error != "" {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "Degradation vs the static scenario\n\n")
		}
		header := fmt.Sprintf("%s — %s grid, %d procs, n=%d, scenario %s\n", r.Problem, r.Grid, r.Procs, r.Size, r.Scenario)
		if header != lastHeader {
			lastHeader = header
			b.WriteString(header)
			fmt.Fprintf(&b, "  %-16s %12s %12s %10s %12s %8s %9s %6s\n",
				"version", "static", "dynamic", "overhead", "reconverge", "drops", "restarts", "conv")
		}
		overhead := "-"
		if static.TimeSec > 0 && !r.Stalled {
			overhead = fmt.Sprintf("%+.1f%%", (r.TimeSec-static.TimeSec)/static.TimeSec*100)
		}
		reconv := "-"
		if r.ReconvergeSec > 0 {
			reconv = FmtSec(r.ReconvergeSec)
		}
		conv := fmt.Sprintf("%v", r.Converged)
		if r.Stalled {
			conv = "STALL"
		}
		fmt.Fprintf(&b, "  %-16s %12s %12s %10s %12s %8d %9d %6s\n",
			r.version(), FmtSec(static.TimeSec), FmtSec(r.TimeSec),
			overhead, reconv, r.Dropped, r.Restarts, conv)
	}
	return b.String()
}

// CalibrationTable relates the two execution backends: for every simulated
// cell whose native twin (same mode, grid, problem, procs, size, scenario;
// backend chan or tcp; env is the native pseudo-environment) is in the
// set, it prints the measured wall-clock times and the ratio of simulated
// to wall seconds. A large ratio means the simulator charges the modelled
// grid far more time than this host needs natively — expected, since the
// simulated grids carry the paper's 2004-era links — and a *stable* ratio
// across versions of one grid is what validates the simulation's shape.
// It returns "" when the set holds no sim/native pair.
func (s *Set) CalibrationTable() string {
	backends := []string{"chan", "tcp"}
	// wall[backend][twin key without env] = measured wall seconds.
	wall := make(map[string]map[string]float64)
	twin := func(r Result) string {
		return fmt.Sprintf("%s/%s/%s/p%d/n%d/%s", r.Mode, r.Grid, r.Problem, r.Procs, r.Size, r.ScenarioOrStatic())
	}
	for _, r := range s.Results {
		if b := r.BackendOrSim(); !simulated(b) && r.Error == "" && r.WallSec > 0 {
			if wall[b] == nil {
				wall[b] = make(map[string]float64)
			}
			wall[b][twin(r)] = r.WallSec
		}
	}
	if len(wall) == 0 {
		return ""
	}
	var b strings.Builder
	lastHeader := ""
	for _, r := range s.Results {
		if !simulated(r.BackendOrSim()) || r.Error != "" {
			continue
		}
		any := false
		for _, bk := range backends {
			if _, ok := wall[bk][twin(r)]; ok {
				any = true
			}
		}
		if !any {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "Sim-vs-native calibration (ratio = simulated seconds per wall-clock second)\n\n")
		}
		header := fmt.Sprintf("%s — %s grid, %d procs, n=%d, scenario %s\n", r.Problem, r.Grid, r.Procs, r.Size, r.ScenarioOrStatic())
		if header != lastHeader {
			lastHeader = header
			b.WriteString(header)
			fmt.Fprintf(&b, "  %-16s %12s %12s %8s %12s %8s\n",
				"version", "sim time", "chan wall", "ratio", "tcp wall", "ratio")
		}
		fmt.Fprintf(&b, "  %-16s %12s", r.version(), FmtSec(r.TimeSec))
		for _, bk := range backends {
			w, ok := wall[bk][twin(r)]
			if !ok || w <= 0 {
				fmt.Fprintf(&b, " %12s %8s", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " %12s %8.1f", FmtSec(w), r.TimeSec/w)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FmtSec renders virtual seconds compactly (ms under a second, seconds
// with two decimals under ten minutes, minutes beyond). It is the single
// time formatter for every rendering of a Result, so progress lines and
// tables agree.
func FmtSec(s float64) string {
	if s < 1 {
		return fmt.Sprintf("%.1fms", s*1e3)
	}
	if s < 600 {
		return fmt.Sprintf("%.2fs", s)
	}
	return fmt.Sprintf("%.1fmin", s/60)
}

// ScalingTable derives speedup and efficiency versus the smallest measured
// processor count, per version series — the derivation behind the paper's
// Figure 3. It returns "" when no series has more than one procs value.
func (s *Set) ScalingTable() string {
	type seriesKey struct {
		env, mode, grid, problem string
		size                     int
	}
	series := make(map[seriesKey][]Result)
	var order []seriesKey
	for _, r := range s.Results {
		if r.Error != "" {
			continue
		}
		k := seriesKey{r.Env, r.Mode, r.Grid, r.Problem, r.Size}
		if _, ok := series[k]; !ok {
			order = append(order, k)
		}
		series[k] = append(series[k], r)
	}
	var b strings.Builder
	for _, k := range order {
		pts := series[k]
		if len(pts) < 2 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Procs < pts[j].Procs })
		if pts[0].Procs == pts[len(pts)-1].Procs {
			continue
		}
		p0 := pts[0]
		if b.Len() == 0 {
			fmt.Fprintf(&b, "Scaling (speedup and efficiency vs the smallest run of each series)\n\n")
		}
		fmt.Fprintf(&b, "%s %s — %s grid, %s, n=%d\n", k.mode, k.env, k.grid, k.problem, k.size)
		fmt.Fprintf(&b, "  %6s %12s %10s %12s\n", "procs", "time", "speedup", "efficiency")
		for _, r := range pts {
			sp := p0.TimeSec / r.TimeSec
			eff := sp * float64(p0.Procs) / float64(r.Procs)
			fmt.Fprintf(&b, "  %6d %12s %10.2f %12.2f\n", r.Procs, FmtSec(r.TimeSec), sp, eff)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Diff compares a new set against a baseline cell by cell and renders the
// per-cell deltas (time, iterations, bytes). Cells present in only one of
// the sets are listed separately.
func Diff(baseline, current *Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Comparison against baseline (%s)\n\n", orUnknown(baseline.CreatedAt))
	fmt.Fprintf(&b, "%-44s %12s %12s %8s %9s %9s\n",
		"cell", "base", "now", "Δtime", "Δiters", "Δbytes")
	var missing, added []string
	for _, r := range current.Results {
		old, ok := baseline.Lookup(r.Key())
		if !ok {
			added = append(added, r.Key())
			continue
		}
		if r.Error != "" || old.Error != "" {
			fmt.Fprintf(&b, "%-44s %12s %12s (error: %s)\n", r.Key(), "-", "-", firstNonEmpty(r.Error, old.Error))
			continue
		}
		fmt.Fprintf(&b, "%-44s %12s %12s %8s %9s %9s\n",
			r.Key(), FmtSec(old.TimeSec), FmtSec(r.TimeSec),
			pct(old.TimeSec, r.TimeSec),
			pct(float64(old.Iters), float64(r.Iters)),
			pct(float64(old.Bytes), float64(r.Bytes)))
	}
	for _, r := range baseline.Results {
		if _, ok := current.Lookup(r.Key()); !ok {
			missing = append(missing, r.Key())
		}
	}
	if len(added) > 0 {
		fmt.Fprintf(&b, "\nonly in current run: %s\n", strings.Join(added, ", "))
	}
	if len(missing) > 0 {
		fmt.Fprintf(&b, "only in baseline: %s\n", strings.Join(missing, ", "))
	}
	return b.String()
}

// Regressions compares current against baseline and returns one violation
// line per shared cell whose simulated time moved by more than tolPct
// percent (or whose stall/convergence outcome changed, or whose protocol
// counters drifted), plus one per baseline cell missing from the current
// run. An empty slice means the run reproduces the baseline within
// tolerance — the CI smoke-sweep check.
//
// The protocol counters (heartbeats, stop rebroadcasts, reconfirm rounds)
// are deterministic for simulated cells and compared exactly, so a
// protocol regression fails the check even when the timing survives; so
// are the red flags, and the sync-wait share of the critical path may move
// by at most 10 points. Native cells gate on timing and outcome alone.
func Regressions(baseline, current *Set, tolPct float64) []string {
	var out []string
	for _, old := range baseline.Results {
		now, ok := current.Lookup(old.Key())
		if !ok {
			out = append(out, fmt.Sprintf("%s: in baseline but not in current run", old.Key()))
			continue
		}
		if now.Error != old.Error {
			out = append(out, fmt.Sprintf("%s: error %q, baseline %q", old.Key(), now.Error, old.Error))
			continue
		}
		if now.Converged != old.Converged || now.Stalled != old.Stalled {
			out = append(out, fmt.Sprintf("%s: converged=%v stalled=%v, baseline converged=%v stalled=%v",
				old.Key(), now.Converged, now.Stalled, old.Converged, old.Stalled))
			continue
		}
		sim := simulated(old.BackendOrSim())
		if sim &&
			(now.Heartbeats != old.Heartbeats ||
				now.StopRebroadcasts != old.StopRebroadcasts ||
				now.ReconfirmRounds != old.ReconfirmRounds) {
			out = append(out, fmt.Sprintf("%s: protocol counters hb=%d rebc=%d recf=%d, baseline hb=%d rebc=%d recf=%d",
				old.Key(), now.Heartbeats, now.StopRebroadcasts, now.ReconfirmRounds,
				old.Heartbeats, old.StopRebroadcasts, old.ReconfirmRounds))
			continue
		}
		if sim && now.Flags != old.Flags {
			out = append(out, fmt.Sprintf("%s: red flags %q, baseline %q",
				old.Key(), now.Flags, old.Flags))
			continue
		}
		// The attribution categories partition the attributed time, so the
		// structural comparison is the share, not the seconds (seconds
		// drift with timing, already gated above). A sync-wait share moving
		// more than 10 points means the cell's critical path changed
		// character — a different explanation, not a different measurement.
		if sim && old.AttrTotalSec > 0 && now.AttrTotalSec > 0 {
			oldShare := old.AttrSyncWaitSec / old.AttrTotalSec
			nowShare := now.AttrSyncWaitSec / now.AttrTotalSec
			if d := (nowShare - oldShare) * 100; d > 10 || d < -10 {
				out = append(out, fmt.Sprintf("%s: sync-wait share %.1f%%, baseline %.1f%% (moved %+.1f points)",
					old.Key(), nowShare*100, oldShare*100, d))
				continue
			}
		}
		if old.TimeSec > 0 {
			d := (now.TimeSec - old.TimeSec) / old.TimeSec * 100
			if d > tolPct || d < -tolPct {
				out = append(out, fmt.Sprintf("%s: time %s vs baseline %s (%+.2f%% > ±%.2f%%)",
					old.Key(), FmtSec(now.TimeSec), FmtSec(old.TimeSec), d, tolPct))
			}
		}
	}
	return out
}

// simulated reports whether a backend name means the simulator ("sim", or
// its synonym "sim-fast"): virtual time, deterministic, so flags and
// counters are comparable exactly.
func simulated(backend string) bool {
	return backend == "sim" || backend == "sim-fast"
}

func pct(old, now float64) string {
	if old == 0 {
		return "-"
	}
	d := (now - old) / old * 100
	if d == 0 {
		return "="
	}
	return fmt.Sprintf("%+.1f%%", d)
}

func orUnknown(s string) string {
	if s == "" {
		return "no timestamp"
	}
	return s
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
