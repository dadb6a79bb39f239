package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	cells := r.Counter("aiac_cells_total", "Cells finished.", "state", "backend")
	cells.With("done", "sim").Add(3)
	cells.With("error", "chan").Inc()
	depth := r.Gauge("aiac_queue_depth", "Sweep queue depth.")
	depth.With().Set(7)
	hist := r.Histogram("aiac_cell_host_seconds", "Host time per cell.", []float64{1, 10}, "backend")
	hist.With("sim").Observe(0.5)
	hist.With("sim").Observe(5)
	hist.With("sim").Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP aiac_cells_total Cells finished.",
		"# TYPE aiac_cells_total counter",
		`aiac_cells_total{state="done",backend="sim"} 3`,
		`aiac_cells_total{state="error",backend="chan"} 1`,
		"# TYPE aiac_queue_depth gauge",
		"aiac_queue_depth 7",
		"# TYPE aiac_cell_host_seconds histogram",
		`aiac_cell_host_seconds_bucket{backend="sim",le="1"} 1`,
		`aiac_cell_host_seconds_bucket{backend="sim",le="10"} 2`,
		`aiac_cell_host_seconds_bucket{backend="sim",le="+Inf"} 3`,
		`aiac_cell_host_seconds_sum{backend="sim"} 55.5`,
		`aiac_cell_host_seconds_count{backend="sim"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Two renders of a quiet registry are byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("successive renders differ")
	}
}

func TestRegistryTimestamps(t *testing.T) {
	r := NewRegistry()
	clock := 1.5
	r.SetTimeSource(func() float64 { return clock })
	c := r.Counter("x_total", "x").With()
	c.Inc()
	clock = 2.25
	c.Inc()
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "x_total 2 2250") {
		t.Errorf("want sample stamped with last update time (ms):\n%s", b.String())
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.SetTimeSource(nil)
	r.Counter("a", "a").With("x").Inc() // nil vec → nil handle → no-op
	r.Gauge("b", "b").With().Set(1)
	r.Histogram("c", "c", nil).With().Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReRegisterMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on label-set mismatch")
		}
	}()
	r.Counter("m", "m", "b")
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n", "w")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.With("shared")
			for j := 0; j < 1000; j++ {
				h.Inc()
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `n_total{w="shared"} 8000`) {
		t.Errorf("lost increments:\n%s", b.String())
	}
}
