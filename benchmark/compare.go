package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (metric, workload) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to two sides' samples. worse is how far
// the new median moved in the bad direction, as a share of the base median
// (negative when it improved). A pairing is unresolved — neither unchanged
// nor regressed — when the run-to-run spread of either side is wider than
// the bound and the two sides' samples overlap: the instrument cannot tell.
func judge(d metricDef, base, next []float64) (verdict string, worse, allowed, spreadShare float64) {
	mb, mn := median(base), median(next)
	worse = (mn - mb) / mb
	if d.higher {
		worse = -worse
	}
	allowed = d.bound + d.floor/mb
	spreadShare = math.Max(spread(base), spread(next))
	bLo, bHi := minMax(base)
	nLo, nHi := minMax(next)
	overlap := bLo <= nHi && nLo <= bHi
	switch {
	case spreadShare > allowed && overlap:
		verdict = verdictUnresolved
	case worse > allowed:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return verdict, worse, allowed, spreadShare
}

func readSuite(path string) (suiteResult, error) {
	var s suiteResult
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints one row per workload and end-to-end metric, every
// ratio with its base, and reports whether anything regressed: a metric
// beyond its bound, or a higher share of failed cells.
func compareFiles(out io.Writer, basePath, nextPath string) (regressed bool, err error) {
	base, err := readSuite(basePath)
	if err != nil {
		return false, err
	}
	next, err := readSuite(nextPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base %s  commit %s  %s  %s\n", basePath, base.Stamp.Commit, base.Stamp.GoVersion, base.Stamp.CPUModel)
	fmt.Fprintf(out, "new  %s  commit %s  %s  %s\n", nextPath, next.Stamp.Commit, next.Stamp.GoVersion, next.Stamp.CPUModel)
	fmt.Fprintf(out, "%-16s %-12s %12s %12s %16s %7s %7s  %s\n",
		"workload", "metric", "base median", "new median", "worse (of base)", "bound", "spread", "verdict")
	for _, w := range workloads {
		bw, okB := base.Workloads[w.name]
		nw, okN := next.Workloads[w.name]
		if !okB || !okN {
			return regressed, fmt.Errorf("workload %s is missing from one side", w.name)
		}
		for _, d := range endToEnd {
			bs, ns := bw.EndToEnd[d.name].Samples, nw.EndToEnd[d.name].Samples
			if len(bs) == 0 || len(ns) == 0 {
				return regressed, fmt.Errorf("%s/%s has no samples on one side", w.name, d.name)
			}
			verdict, worse, allowed, sp := judge(d, bs, ns)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(out, "%-16s %-12s %12.5g %12.5g %+15.2f%% %6.1f%% %6.1f%%  %s\n",
				w.name, d.name, median(bs), median(ns), worse*100, allowed*100, sp*100, verdict)
		}
		bf := float64(bw.Failed) / float64(bw.Attempted)
		nf := float64(nw.Failed) / float64(nw.Attempted)
		verdict := verdictOK
		if nf > bf {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(out, "%-16s %-12s %9d/%-5d %6d/%-5d %47s\n",
			w.name, "failed", bw.Failed, bw.Attempted, nw.Failed, nw.Attempted, verdict)
	}
	return regressed, nil
}
