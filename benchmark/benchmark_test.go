package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testDiv shrinks every problem size (and the unit-cost loops) so the tests
// drive the full code path in well under a second per workload.
const testDiv = 50

func TestWorkloadsEnumerateTheirCells(t *testing.T) {
	want := map[string]int{"adsl-spin": 4, "sync-exchange": 8, "kernel-large": 2, "grid-dynamics": 16, "native-loopback": 4}
	if len(workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(workloads), len(want))
	}
	for _, w := range workloads {
		spec := w.spec(1)
		if got := len(spec.Cells()); got != want[w.name] {
			t.Errorf("%s enumerates %d cells, want %d", w.name, got, want[w.name])
		}
		w.refCell(spec) // panics when the selector matches nothing
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestNamesMatchBenchmarkJSONAndList(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var listed bytes.Buffer
	list(&listed)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(name) + `\s`).Match(listed.Bytes()) {
			t.Errorf("-list does not print %q", name)
		}
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, g := range []struct {
		kind    string
		defs    []metricDef
		json    []jsonMetric
		bounded bool
	}{{"end_to_end", endToEnd, bj.EndToEnd, true}, {"per_layer", perLayer, bj.PerLayer, false}} {
		if len(g.json) != len(g.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", g.kind, len(g.json), len(g.defs))
		}
		for i, d := range g.defs {
			checkName(d.name)
			j := g.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better() {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s %s %s", g.kind, i, j, d.name, d.unit, d.better())
			}
			switch {
			case g.bounded && (j.Bound == nil || *j.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json and in the program must agree and lie in (0, 0.25]", d.name)
			case !g.bounded && (j.Bound != nil || d.bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	if !seen["setup_s"] {
		t.Error("the contract requires an end-to-end metric named setup_s")
	}
}

func TestGoldenCoversEverySimulatedCell(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed {
		t.Errorf("golden.json is recorded at seed %d, want %d", g.Seed, defaultSeed)
	}
	cells := 0
	for _, w := range workloads {
		if w.native {
			continue
		}
		for _, c := range w.spec(1).Cells() {
			cells++
			if len(g.Rows[c.Key()]) != 64 {
				t.Errorf("golden.json has no digest for %s", c.Key())
			}
		}
		if len(g.Reference[w.name]) != 64 {
			t.Errorf("golden.json has no reference-cell digest for %s", w.name)
		}
	}
	if len(g.Rows) != cells {
		t.Errorf("golden.json holds %d rows for %d simulated cells", len(g.Rows), cells)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "host_s", bound: 0.10}
	higher := metricDef{name: "iters_per_s", higher: true, bound: 0.10}
	floored := metricDef{name: "setup_s", bound: 0.25, floor: 0.05}
	tight := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, next []float64
		want       string
	}{
		{"unchanged", lower, tight, []float64{10.2, 10.1, 10.3, 10.15, 10.25}, verdictOK},
		{"improved", lower, tight, []float64{8, 8.1, 7.9, 8.05, 7.95}, verdictOK},
		{"worse beyond the bound", lower, tight, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, verdictRegressed},
		{"throughput fell beyond the bound", higher, tight, []float64{8, 8.1, 7.9, 8.05, 7.95}, verdictRegressed},
		{"throughput rose", higher, tight, []float64{12, 12.1, 11.9, 12, 12}, verdictOK},
		{"spread wider than the bound, sides overlap", lower, []float64{8, 10, 12, 9, 11}, []float64{9, 11, 13, 10, 12}, verdictUnresolved},
		{"wide spread but every new run is better", lower, []float64{8, 10, 12, 9, 11}, []float64{5, 6, 7, 5.5, 6.5}, verdictOK},
		{"wide spread and every new run is worse", lower, []float64{8, 10, 12, 9, 11}, []float64{14, 16, 18, 15, 17}, verdictRegressed},
		{"small set-up inside its absolute floor", floored, []float64{0.010, 0.011, 0.010, 0.012, 0.010}, []float64{0.02, 0.021, 0.02, 0.022, 0.02}, verdictOK},
	} {
		if got, _, _, _ := judge(tc.d, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	// Python's statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// One down-scaled run of the code path the driver runs: the untraced
// measurement must emit every end-to-end metric, the traced one every
// metric its layers can produce, a span tree whose children fit inside
// their parents, and a staged replica that reproduces matrix's own result.
func TestDownscaledRun(t *testing.T) {
	w, _ := workloadByName("kernel-large")
	out, err := measure(w, defaultSeed+1, 0, testDiv)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.failures) != 0 || out.attempted != minPasses*2 {
		t.Errorf("measure: attempted %d, failures %v", out.attempted, out.failures)
	}
	for _, d := range endToEnd {
		if v, ok := out.values[d.name]; !ok || !(v > 0) {
			t.Errorf("measure: %s = %v, want a positive value", d.name, v)
		}
	}

	for _, tc := range []struct {
		workload string
		absent   string // prefix of metrics the workload's layers cannot produce
	}{{"kernel-large", "transport."}, {"native-loopback", "des."}} {
		w, _ := workloadByName(tc.workload)
		out, spans, err := traceRun(w, defaultSeed+1, testDiv, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if len(out.failures) != 0 {
			t.Errorf("%s: failures %v", tc.workload, out.failures)
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.name] = true
			_, ok := out.values[d.name]
			if strings.HasPrefix(d.name, tc.absent) && ok {
				t.Errorf("%s: %s must be absent, not zero-filled", tc.workload, d.name)
			}
		}
		for name, v := range out.values {
			if !known[name] {
				t.Errorf("%s: traced run produced %s, which perLayer does not name", tc.workload, name)
			}
			if v != v || v-v != 0 {
				t.Errorf("%s: %s = %v, which JSON cannot carry", tc.workload, name, v)
			}
		}
		checkSpanTree(t, tc.workload, spans)
	}
}

func checkSpanTree(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: no spans", workload)
	}
	children := map[int]float64{}
	for i, s := range spans {
		if s.ID != i+1 || s.Parent >= s.ID || s.EndS < s.StartS || s.Name == "" || s.Cell == "" {
			t.Errorf("%s: malformed span %+v", workload, s)
			continue
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.StartS < p.StartS || s.EndS > p.EndS {
				t.Errorf("%s: span %s [%g, %g] leaves its parent %s [%g, %g]", workload, s.Name, s.StartS, s.EndS, p.Name, p.StartS, p.EndS)
			}
			children[s.Parent] += s.EndS - s.StartS
		}
	}
	for id, sum := range children {
		if p := spans[id-1]; sum > p.EndS-p.StartS {
			t.Errorf("%s: children of %s cover %g s, more than its %g s", workload, p.Name, sum, p.EndS-p.StartS)
		}
	}
}
