package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json carries the same names, units,
// directions and bounds; a test holds the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	// bound is the share of the base median by which an end-to-end metric
	// may worsen before -compare calls it a regression (0 for per-layer
	// metrics, which have no bound).
	bound float64
	// floor is an absolute slack added to the bound, in the metric's unit:
	// a 20 ms set-up moves by more than a quarter on scheduler noise alone.
	floor float64
}

// endToEnd are the metrics a user of a sweep sees, taken only from passes
// with the benchmark's own spans off. The time bounds are what the shared
// reference box can hold, not what one would like: between two sets of runs
// an hour apart a workload's median moved by as much as 50 % with no change
// to the program (README, first recorded baseline).
var endToEnd = []metricDef{
	{name: "host_s", unit: "s", bound: 0.25},
	{name: "iters_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.05},
}

// perLayer are the numbers of the traced pass, in ledger order. A metric a
// workload's layers cannot produce (the simulator's on native-loopback, the
// transport's on the simulated four) is absent from that workload's trace
// file; the contract line of a run zero-fills it because the driver wants
// every name on every run.
var perLayer = []metricDef{
	{name: "problems.assemble_s", unit: "s"},
	{name: "cluster.deploy_s", unit: "s"},
	{name: "scenario.deploy_s", unit: "s"},
	{name: "simfast.run_s", unit: "s"},
	{name: "simfast.run_traced_s", unit: "s"},
	{name: "trace.record_s", unit: "s"},
	{name: "trace.spans", unit: "count"},
	{name: "trace.msgs", unit: "count"},
	{name: "trace.waits", unit: "count"},
	{name: "trace.addspan_ns", unit: "ns"},
	{name: "critpath.analyze_s", unit: "s"},
	{name: "obs.detect_s", unit: "s"},
	{name: "des.events", unit: "count"},
	{name: "des.events_per_s", unit: "1/s", higher: true},
	{name: "des.queue_depth", unit: "count"},
	{name: "des.event_ns", unit: "ns"},
	{name: "des.event_allocs", unit: "allocs/op"},
	{name: "marcel.compute_ns", unit: "ns"},
	{name: "marcel.compute_allocs", unit: "allocs/op"},
	{name: "netsim.messages", unit: "count"},
	{name: "netsim.bytes", unit: "B"},
	{name: "netsim.dropped", unit: "count"},
	{name: "netsim.send_ns", unit: "ns"},
	{name: "netsim.send_lossy_ns", unit: "ns"},
	{name: "envcore.exchange_ns.mpi", unit: "ns"},
	{name: "envcore.exchange_ns.pm2", unit: "ns"},
	{name: "envcore.exchange_ns.madmpi", unit: "ns"},
	{name: "envcore.exchange_ns.omniorb", unit: "ns"},
	{name: "protocol.step_ns", unit: "ns"},
	{name: "protocol.state_msgs", unit: "count"},
	{name: "protocol.heartbeats", unit: "count"},
	{name: "protocol.rebroadcasts", unit: "count"},
	{name: "protocol.restarts", unit: "count"},
	{name: "sparse.updates", unit: "count"},
	{name: "sparse.step_ns", unit: "ns"},
	{name: "sparse.step_gbs", unit: "GB/s", higher: true},
	{name: "sparse.step_allocs", unit: "allocs/op"},
	{name: "sparse.bytes_per_step", unit: "B"},
	{name: "codec.encode_ns", unit: "ns"},
	{name: "codec.decode_ns", unit: "ns"},
	{name: "codec.allocs", unit: "allocs/op"},
	{name: "transport.chan_rtt_us", unit: "us"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.start_s", unit: "s"},
	{name: "transport.msgs", unit: "count"},
	{name: "transport.bytes", unit: "B"},
	{name: "backend.run_s", unit: "s"},
	{name: "backend.iters", unit: "count", higher: true},
	{name: "backend.wall_per_iter_us", unit: "us"},
	{name: "report.append_us", unit: "us"},
	{name: "report.save_s", unit: "s"},
	{name: "matrix.overhead_s", unit: "s"},
	{name: "runtime.alloc_mb", unit: "MB"},
	{name: "runtime.num_gc", unit: "count"},
	{name: "runtime.gc_cpu_s", unit: "s"},
	{name: "des.share", unit: "share"},
	{name: "marcel.share", unit: "share"},
	{name: "netsim.share", unit: "share"},
	{name: "envcore.share", unit: "share"},
	{name: "protocol.share", unit: "share"},
	{name: "sparse.share", unit: "share"},
	{name: "trace.share", unit: "share"},
	{name: "simfast.unattributed_share", unit: "share"},
	{name: "bench.trace_overhead_share", unit: "share"},
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// median returns the middle value (mean of the middle two for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4)
// (exclusive method) so it reads the same as the driver's acceptance check.
// Fewer than two samples have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
