package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"aiac/internal/matrix"
	"aiac/internal/obs"
	"aiac/internal/obs/critpath"
	"aiac/internal/report"
	"aiac/internal/sparse"
	"aiac/internal/trace"
)

// cellFlags are the flags that apply to a run of named cells: the spec
// the keys are read against (-paper), the run's jitter seed and native
// guard, and the views. Every other flag shapes a sweep.
var cellFlags = map[string]bool{
	"paper": true, "seed": true, "timeout": true,
	"gantt": true, "chrome": true, "critpath": true, "metrics": true,
}

// viewFlags render a run of named cells and mean nothing to a sweep.
var viewFlags = []string{"gantt", "chrome", "critpath", "metrics"}

// views selects what is printed about each named cell besides its
// status line.
type views struct {
	gantt, critpath, metrics bool
	chrome                   string // trace-event JSON file; one key only
}

// traced reports whether any view needs the run's execution flow.
func (v views) traced() bool { return v.gantt || v.critpath || v.metrics || v.chrome != "" }

// parseCells reads the named cells and the spec they run against (the
// default sweep's, or the -paper preset's), refusing the flags that mean
// nothing for that many named cells.
func parseCells(explicit, keys []string, paper string, v views) ([]matrix.Cell, matrix.Spec, error) {
	for _, name := range explicit {
		if !cellFlags[name] {
			return nil, matrix.Spec{}, fmt.Errorf("-%s has no effect with cell keys: a key names one run (only -paper, -seed, -timeout, -gantt, -chrome, -critpath and -metrics apply)", name)
		}
	}
	if v.critpath && len(keys) > 2 {
		return nil, matrix.Spec{}, fmt.Errorf("-critpath takes one key (its attribution) or two (their diff), not %d", len(keys))
	}
	if v.chrome != "" && len(keys) != 1 {
		return nil, matrix.Spec{}, fmt.Errorf("-chrome writes one cell's trace: give one key, not %d", len(keys))
	}
	spec, err := buildSpec(paper, "", "", "", "", "", "", "", "")
	if err != nil {
		return nil, spec, err
	}
	cells := make([]matrix.Cell, len(keys))
	for i, key := range keys {
		if cells[i], err = matrix.ParseKey(key); err != nil {
			return nil, spec, err
		}
	}
	return cells, spec, nil
}

// runCells runs each cell once through matrix.RunCellOnce — the path
// every sweep cell takes, against the same spec — and prints its status
// line and the selected views.
func runCells(cells []matrix.Cell, spec matrix.Spec, seed int64, timeout time.Duration, v views) error {
	attrs := make([]*critpath.Attribution, len(cells))
	for i, c := range cells {
		key := c.Key()
		var tr *trace.Collector
		if v.traced() {
			tr = trace.New()
		}
		start := time.Now()
		r, err := matrix.RunCellOnce(c, spec, 0, seed, timeout, tr)
		if err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
		r.HostSec = time.Since(start).Seconds()
		if i > 0 && (v.gantt || v.metrics) {
			fmt.Println()
		}
		status := "converged"
		switch {
		case r.Stalled:
			status = "STALLED"
		case !r.Converged:
			status = "did not converge"
		}
		fmt.Printf("%s: %s in %s (%d iters)", key, status, report.FmtSec(r.TimeSec), r.Iters)
		if r.Flags != "" {
			fmt.Printf("  flags=%s", r.Flags)
		}
		fmt.Println()
		if r.ReconvergeSec > 0 {
			fmt.Printf("reconverged %s after the last perturbation\n", report.FmtSec(r.ReconvergeSec))
		}
		if v.chrome != "" {
			if err := writeChrome(v.chrome, tr); err != nil {
				return err
			}
			fmt.Printf("wrote Chrome trace-event JSON to %s (open in https://ui.perfetto.dev)\n", v.chrome)
		}
		if v.gantt {
			fmt.Print(tr.Gantt(72))
			fmt.Printf("\nmean idle fraction: %.1f%%\n", 100*tr.MeanIdleFraction())
		}
		if v.critpath {
			a, ok := critpath.Analyze(tr, critpath.TotalFromSeconds(r.TimeSec))
			if !ok {
				return fmt.Errorf("%s: trace is not attributable (no compute spans recorded)", key)
			}
			attrs[i] = a
			if len(cells) == 1 {
				fmt.Printf("\ncritical path: %s\n\n", a.Summary())
				fmt.Print(a.Listing(40))
			}
		}
		if v.metrics {
			fmt.Println()
			if err := writeMetrics(r, tr); err != nil {
				return err
			}
		}
	}
	if v.critpath && len(cells) == 2 {
		fmt.Println()
		fmt.Print(critpath.Explain(cells[0].Key(), attrs[0], cells[1].Key(), attrs[1]))
	}
	return nil
}

// writeChrome exports the trace as Chrome trace-event JSON.
func writeChrome(path string, tr *trace.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics renders one cell's result in Prometheus text: the series a
// sweep's /metrics serves (matrix.RecordResult), plus per-rank busy/idle
// gauges and the trace's size from the execution flow, and the kernel
// path. Series are stamped with the cell's measured time, not the host's
// clock: scraping never happened, the exposition is a record of the run.
func writeMetrics(r report.Result, tr *trace.Collector) error {
	reg := obs.NewRegistry()
	reg.SetTimeSource(func() float64 { return r.TimeSec })
	matrix.RecordResult(reg, r)
	idle := reg.Gauge("aiac_rank_idle_fraction", "Fraction of the run the rank spent idle (blocked on synchronous exchanges).", "rank")
	busySec := reg.Gauge("aiac_rank_busy_seconds", "Time the rank spent computing (trace compute spans).", "rank")
	idleSec := reg.Gauge("aiac_rank_idle_seconds", "Time the rank spent idle (trace idle spans).", "rank")
	for rank := 0; rank < r.Procs; rank++ {
		// One BusyIdle read drives the fraction and both absolute series,
		// so the three can never disagree about what the trace recorded
		// (trace.TestIdleFractionMatchesBusyIdle pins the derivation).
		busy, idleT := tr.BusyIdle(rank)
		frac := 0.0
		if total := busy + idleT; total > 0 {
			frac = float64(idleT) / float64(total)
		}
		label := strconv.Itoa(rank)
		idle.With(label).Set(frac)
		busySec.With(label).Set(busy.Seconds())
		idleSec.With(label).Set(idleT.Seconds())
	}
	reg.Gauge("aiac_trace_spans", "Compute/idle spans the trace holds (a span is a run of back-to-back equal iterations).").With().Set(float64(len(tr.Spans)))
	reg.Gauge("aiac_trace_iterations", "Compute iterations those spans encode.").With().Set(float64(tr.Iterations()))
	reg.Gauge("aiac_kernel_path", "Primitives the DIA kernels ran on in this process, chosen at start-up from the CPU (host fact, not a measured result).", "path").With(sparse.KernelPath()).Set(1)
	return reg.WritePrometheus(os.Stdout)
}
