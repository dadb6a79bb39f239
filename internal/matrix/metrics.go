package matrix

import (
	"strings"

	"aiac/internal/obs"
	"aiac/internal/report"
)

// RecordResult folds one completed cell into a metrics registry — the
// sweep's (Options.Metrics), or one cell's (aiacbench -metrics KEY): the
// scattered per-cell observability fields (protocol counters, drops,
// restarts, red flags) behind the Prometheus names aiacbench's /metrics
// endpoint serves. No-op on a nil registry.
func RecordResult(reg *obs.Registry, r report.Result) {
	if reg == nil {
		return
	}
	backend := r.BackendOrSim()
	state := "done"
	switch {
	case r.Error != "":
		state = "error"
	case r.Resumed:
		state = "cached"
	case r.Stalled:
		state = "stalled"
	}
	reg.Counter("aiac_cells_total",
		"Sweep cells completed, by outcome state and execution backend.",
		"state", "backend").With(state, backend).Inc()
	if r.Resumed {
		// A cached cell's measurements were recorded by the sweep that
		// executed it; counting them again would double every total.
		return
	}
	reg.Histogram("aiac_cell_host_seconds",
		"Host wall time spent executing one cell (all repetitions).",
		nil, "backend").With(backend).Observe(r.HostSec)
	if r.Error != "" {
		return
	}
	reg.Histogram("aiac_cell_time_seconds",
		"Measured execution time of one cell: virtual seconds for simulated backends, wall seconds for native.",
		nil, "backend").With(backend).Observe(r.TimeSec)
	add := func(name, help string, v float64) {
		reg.Counter(name, help, "backend").With(backend).Add(v)
	}
	add("aiac_iterations_total", "Local iterations summed over all ranks and cells.", float64(r.Iters))
	add("aiac_messages_total", "Data/control messages delivered.", float64(r.Messages))
	add("aiac_bytes_total", "Bytes carried by delivered messages.", float64(r.Bytes))
	add("aiac_messages_dropped_total", "Messages lost to scenario loss models or crashed nodes.", float64(r.Dropped))
	add("aiac_restarts_total", "Rank crash/restart cycles observed.", float64(r.Restarts))
	add("aiac_heartbeats_total", "Confirmed-state re-sends (protocol heartbeats).", float64(r.Heartbeats))
	add("aiac_stop_rebroadcasts_total", "Coordinator post-stop stop repeats.", float64(r.StopRebroadcasts))
	add("aiac_reconfirm_rounds_total", "Post-state-loss re-confirmation rounds.", float64(r.ReconfirmRounds))
	for _, f := range strings.Split(r.Flags, ",") {
		if f != "" {
			reg.Counter("aiac_redflags_total",
				"Convergence red-flag verdicts raised by the trajectory detectors.",
				"flag").With(f).Inc()
		}
	}
	if r.AttrTotalSec > 0 {
		crit := reg.Counter("aiac_critpath_seconds",
			"Critical-path time attributed to each cause category, summed over attributed cells (virtual seconds).",
			"category")
		crit.With("compute").Add(r.AttrComputeSec)
		crit.With("transit").Add(r.AttrTransitSec)
		crit.With("sync-wait").Add(r.AttrSyncWaitSec)
		crit.With("protocol").Add(r.AttrProtocolSec)
		crit.With("blocked-send").Add(r.AttrBlockedSendSec)
	}
}
