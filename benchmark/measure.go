package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"aiac/internal/matrix"
	"aiac/internal/problems"
	"aiac/internal/report"
)

// A run repeats its set-up at least minSetups times, and until
// setupBudgetS is spent (at most maxSetups): setup_s is the median, so one
// page-fault storm does not read as a set-up regression, and a set-up of a
// few milliseconds is sampled often enough for its median to be steady.
const (
	minSetups    = 5
	maxSetups    = 100
	setupBudgetS = 0.5
)

// minPasses is the least number of timed passes a run makes whatever
// --seconds says, so host_s is always a median of at least three.
const minPasses = 3

// inputs is everything a pass needs, generated from the seed alone: the
// program under test receives the spec and the options, nothing else.
type inputs struct {
	spec matrix.Spec
	opts matrix.Options
	gold golden
}

// setUp generates the workload's inputs, loads the golden digests, and
// builds every distinct problem of the workload once through a fresh
// assembly cache, discarding it: the sweep re-assembles internally, as a
// user's sweep does, and the probe is here so that work a later change
// moves from the solve into assembly still shows, in setup_s.
func setUp(w workload, seed int64, div int) (inputs, error) {
	in := inputs{spec: w.spec(div), opts: w.options(seed)}
	var err error
	if in.gold, err = loadGolden(); err != nil {
		return in, err
	}
	cache := problems.NewCache()
	lp := in.spec.Linear
	for _, n := range in.spec.Sizes {
		for rep := 0; rep < w.reps; rep++ {
			cache.LinearOp(lp.Operator, n, lp.Diags, lp.Rho, lp.Seed+int64(rep))
		}
	}
	return in, nil
}

// timedSetUp repeats setUp and returns the last inputs with the median
// set-up time.
func timedSetUp(w workload, seed int64, div int) (inputs, float64, error) {
	var in inputs
	var times []float64
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin).Seconds() < setupBudgetS); i++ {
		t0 := time.Now()
		var err error
		if in, err = setUp(w, seed, div); err != nil {
			return in, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	// The probes' garbage is not the sweep's: collect it so the first pass
	// starts from the heap a fresh aiacbench process would have.
	runtime.GC()
	return in, median(times), nil
}

// pass is one timed matrix.Run with the runtime's own counters read just
// outside the timed region.
type pass struct {
	hostS   float64
	iters   int
	allocMB float64
	numGC   float64
	gcCPUS  float64
	results []report.Result
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runPass is the end-to-end timed region: exactly one matrix.Run, the call
// an aiacbench user makes, rep-0 attribution trace included.
func runPass(in inputs) (pass, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	t0 := time.Now()
	set, err := matrix.Run(in.spec, in.opts)
	p := pass{hostS: time.Since(t0).Seconds()}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return p, err
	}
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.numGC = float64(m1.NumGC - m0.NumGC)
	p.gcCPUS = gcCPUSeconds() - gc0
	p.results = set.Results
	for _, r := range set.Results {
		p.iters += r.Iters
	}
	return p, nil
}

// verify checks one pass's rows and returns one line per failed cell. A
// cell fails if it errored, if its virtual result differs from the golden
// digest (simulated cells at the golden seed and full size), or if an
// invariant that holds at any seed breaks: a converged cell beyond
// residualLimit, a static asynchronous simulated cell that did not
// converge, a native cell that stalled. A sync cell that ends stalled under
// a fault scenario is a recorded outcome, not a failure.
func verify(w workload, in inputs, div int, rs []report.Result) []string {
	var bad []string
	checkGolden := !w.native && div == 1 && in.opts.Seed == in.gold.Seed
	for _, r := range rs {
		key := r.Key()
		switch {
		case r.Error != "":
			bad = append(bad, key+": "+r.Error)
		case checkGolden && digest(r) != in.gold.Rows[key]:
			bad = append(bad, key+": virtual result differs from golden.json")
		case r.Converged && r.Residual > residualLimit(in.spec.Linear):
			bad = append(bad, fmt.Sprintf("%s: converged with residual %.3g", key, r.Residual))
		case !w.native && r.Mode == "async" && r.ScenarioOrStatic() == "static" && !r.Converged:
			bad = append(bad, key+": static async cell did not converge")
		case w.native && r.Stalled:
			bad = append(bad, key+": native cell stalled")
		}
	}
	return bad
}

// residualLimit is the largest max-norm error a converged cell may carry.
// A rank stops on a step below Eps; for an iteration that contracts by Rho
// the error behind such a step is at most Eps/(1-Rho) in lockstep, and of
// that order on stale asynchronous data, so the limit is a hundred times
// that: wide enough for native-loopback's Rho of 0.995, tight enough that a
// wrong answer (the solution's entries are 1, 2 and 3) cannot pass.
func residualLimit(lp matrix.LinearParams) float64 {
	return 100 * lp.Eps / (1 - lp.Rho)
}

// peakRSSMB is the process's high-water resident set, from the kernel.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %w", sc.Err())
}

// runOutcome is what one run of one workload produced, before it is
// rendered as the contract line.
type runOutcome struct {
	attempted int
	failures  []string
	values    map[string]float64
}

// measure is the untraced run: set up, then timed passes for `seconds`
// (at least minPasses; a further pass starts only if a median pass still
// fits), every pass verified. Timings are medians over the passes.
func measure(w workload, seed int64, seconds float64, div int) (runOutcome, error) {
	in, setupS, err := timedSetUp(w, seed, div)
	if err != nil {
		return runOutcome{}, err
	}
	var out runOutcome
	var hostS, itersPerS []float64
	begin := time.Now()
	for len(hostS) < minPasses || time.Since(begin).Seconds()+median(hostS) <= seconds {
		p, err := runPass(in)
		if err != nil {
			return out, fmt.Errorf("matrix.Run: %w", err)
		}
		out.attempted += len(p.results)
		out.failures = append(out.failures, verify(w, in, div, p.results)...)
		hostS = append(hostS, p.hostS)
		itersPerS = append(itersPerS, float64(p.iters)/p.hostS)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	lo, hi := minMax(hostS)
	fmt.Printf("%s: host_s median %.4f min %.4f max %.4f over %d passes\n", w.name, median(hostS), lo, hi, len(hostS))
	out.values = map[string]float64{
		"host_s":      median(hostS),
		"iters_per_s": median(itersPerS),
		"peak_rss_mb": rss,
		"setup_s":     setupS,
	}
	return out, nil
}
