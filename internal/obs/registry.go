// Package obs is the unified telemetry layer shared by both execution
// drivers (the simulated engine and the native wall-clock backend) and by
// the sweep runner on top of them. It replaces the ad-hoc observability that grew alongside
// the repro — protocol counters bolted onto Report, an ASCII Gantt, a
// printf ETA — with four composable pieces:
//
//   - a metrics registry (this file): counters, gauges and histograms with
//     labels, stamped with virtual or wall time, rendered in the
//     Prometheus text format;
//   - per-rank convergence timelines (timeline.go): deterministic
//     downsampled residual trajectories recorded by the engine loops;
//   - convergence red-flag detectors (redflag.go): oscillation,
//     plateau-without-converge and residual-regression-after-restart
//     verdicts computed from the timelines;
//   - execution-flow export (chrometrace.go): trace.Collector spans and
//     messages as Chrome trace-event JSON, loadable in Perfetto;
//   - live sweep progress (sweep.go, http.go): per-cell state, a
//     makespan-weighted ETA and an HTTP endpoint serving /progress,
//     /metrics and pprof while a sweep runs.
//
// Everything here observes; nothing steers. The hard contract, enforced
// by the recorded engine golden file and the committed smoke
// baseline, is that telemetry must not perturb the simulation: recording
// never schedules simulator events, never reads nondeterministic state
// into the measurement path, and is nil-safe throughout so disabled
// telemetry costs a single pointer test.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a metric family.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution of observations.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use, and all
// methods are no-ops on a nil *Registry (and on the nil vectors and
// handles it then returns), so instrumented code never needs nil checks
// and disabled telemetry costs one pointer comparison.
type Registry struct {
	mu       sync.Mutex
	now      func() float64 // optional sample time source, in seconds
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry with no time source: samples
// render without timestamps.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetTimeSource installs the clock that stamps every subsequent metric
// update, as seconds since an arbitrary epoch. A simulated driver passes
// its virtual clock (des.Time seconds), a native driver the wall clock
// (Unix seconds); rendering multiplies by 1e3 into the millisecond
// timestamps of the Prometheus text format. A nil source (the default)
// renders unstamped samples.
func (r *Registry) SetTimeSource(now func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// family is one named metric with a fixed label-name set and one series
// per distinct label-value combination.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	// buckets are the histogram upper bounds (histogram families only).
	buckets []float64
	series  map[string]*series
	order   []string
}

// series is one (family, label values) time series.
type series struct {
	mu     sync.Mutex
	labels []string
	value  float64 // counter / gauge value
	// histogram state
	counts []uint64
	sum    float64
	count  uint64
	// stamp is the time-source reading at the last update; NaN when the
	// registry has no time source.
	stamp float64
}

// register returns the named family, creating it on first use. Re-
// registering a name with a different kind or label set is a programming
// error and panics: two call sites would otherwise silently write into
// incompatible shapes.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v%v, was %v%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		buckets: buckets, labels: labels,
		series: make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// with returns the series for the given label values, creating it on
// first use.
func (r *Registry) with(f *family, values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]string(nil), values...), stamp: math.NaN()}
		if f.kind == KindHistogram {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// stampNow reads the registry's time source (NaN when unset).
func (r *Registry) stampNow() float64 {
	r.mu.Lock()
	now := r.now
	r.mu.Unlock()
	if now == nil {
		return math.NaN()
	}
	return now()
}

// CounterVec is a labelled counter family.
type CounterVec struct {
	r *Registry
	f *family
}

// Counter registers (or finds) a counter family. Label names are fixed at
// registration.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, f: r.register(name, help, KindCounter, nil, labels)}
}

// With resolves a handle for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{r: v.r, s: v.r.with(v.f, values)}
}

// Counter is one counter series handle.
type Counter struct {
	r *Registry
	s *series
}

// Add increments the counter by d (which must be >= 0).
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic("obs: counter decremented")
	}
	stamp := c.r.stampNow()
	c.s.mu.Lock()
	c.s.value += d
	c.s.stamp = stamp
	c.s.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct {
	r *Registry
	f *family
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r: r, f: r.register(name, help, KindGauge, nil, labels)}
}

// With resolves a handle for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{r: v.r, s: v.r.with(v.f, values)}
}

// Gauge is one gauge series handle.
type Gauge struct {
	r *Registry
	s *series
}

// Set records the gauge's current value.
func (g *Gauge) Set(val float64) {
	if g == nil {
		return
	}
	stamp := g.r.stampNow()
	g.s.mu.Lock()
	g.s.value = val
	g.s.stamp = stamp
	g.s.mu.Unlock()
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	stamp := g.r.stampNow()
	g.s.mu.Lock()
	g.s.value += d
	g.s.stamp = stamp
	g.s.mu.Unlock()
}

// DefBuckets are the default histogram bucket upper bounds, spanning the
// sub-millisecond simulated exchanges up to multi-minute native cells.
var DefBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120, 300}

// HistogramVec is a labelled histogram family.
type HistogramVec struct {
	r *Registry
	f *family
}

// Histogram registers (or finds) a histogram family with the given bucket
// upper bounds (nil = DefBuckets). Buckets must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return &HistogramVec{r: r, f: r.register(name, help, KindHistogram, buckets, labels)}
}

// With resolves a handle for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{r: v.r, s: v.r.with(v.f, values), buckets: v.f.buckets}
}

// Histogram is one histogram series handle.
type Histogram struct {
	r       *Registry
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(val float64) {
	if h == nil {
		return
	}
	stamp := h.r.stampNow()
	h.s.mu.Lock()
	i := sort.SearchFloat64s(h.buckets, val) // first bucket with bound >= val
	h.s.counts[i]++
	h.s.sum += val
	h.s.count++
	h.s.stamp = stamp
	h.s.mu.Unlock()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families in registration order and series in
// first-use order, so successive scrapes of a quiet registry are
// byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		keys := append([]string(nil), f.order...)
		sers := make([]*series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range sers {
			s.mu.Lock()
			value, stamp, sum, count := s.value, s.stamp, s.sum, s.count
			counts := append([]uint64(nil), s.counts...)
			s.mu.Unlock()
			if f.kind != KindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s%s\n",
					f.name, labelString(f.labels, s.labels, "", ""), fmtValue(value), fmtStamp(stamp)); err != nil {
					return err
				}
				continue
			}
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(f.buckets) {
					le = fmtValue(f.buckets[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
					f.name, labelString(f.labels, s.labels, "le", le), cum, fmtStamp(stamp)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s%s\n%s_count%s %d%s\n",
				f.name, labelString(f.labels, s.labels, "", ""), fmtValue(sum), fmtStamp(stamp),
				f.name, labelString(f.labels, s.labels, "", ""), count, fmtStamp(stamp)); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelString renders a {k="v",...} label block, with an optional extra
// label (the histogram "le"); empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text format (backslash, quote
// and newline); %q then adds the quotes, re-escaping the backslashes.
func escapeLabel(v string) string {
	return strings.NewReplacer("\n", `\n`).Replace(v)
}

// fmtValue renders a sample value the way Prometheus expects: shortest
// float representation, integers without an exponent.
func fmtValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// fmtStamp renders the optional millisecond timestamp suffix.
func fmtStamp(stamp float64) string {
	if math.IsNaN(stamp) {
		return ""
	}
	return fmt.Sprintf(" %d", int64(stamp*1e3))
}
