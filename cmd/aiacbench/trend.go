package main

// -trend: cross-file drift. The repo accumulates BENCH_*.json results
// files (and their .jsonl sidecars) from different sweeps and eras;
// printTrend lines them up — one column per file, one row per cell key —
// so the trajectory of any cell, and of the async-vs-sync speedup, is
// visible at a glance instead of requiring N pairwise -baseline diffs.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aiac/internal/report"
)

// trendFile is one loaded results file: its display label and the last
// result per cell key (sidecar rows may repeat a key after a resume; the
// latest row supersedes, matching ReadSidecar's documented lookup rule).
type trendFile struct {
	label   string
	results map[string]report.Result
}

// printTrend loads every BENCH_*.json / BENCH_*.jsonl in dir and prints
// the per-cell time trajectory across them, plus the async-over-sync
// speedup trajectory for every cell pair that differs only in mode.
func printTrend(dir string) error {
	files, err := trendFiles(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no BENCH_*.json or BENCH_*.jsonl files in %s", dir)
	}

	// Union of cell keys, sorted, so a cell present in only some files
	// still gets a row (shown as "-" where absent).
	keySet := map[string]bool{}
	for _, f := range files {
		for k := range f.results {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	const colW = 12
	header := func(title string) {
		fmt.Printf("%s\n\n", title)
		fmt.Printf("%-52s", "cell")
		for _, f := range files {
			fmt.Printf("  %*s", colW, f.label)
		}
		fmt.Printf("  %*s\n", colW, "drift")
	}

	header(fmt.Sprintf("Trend: simulated/wall time per cell across %d results files (name order)", len(files)))
	for _, k := range keys {
		fmt.Printf("%-52s", k)
		var first, last float64
		for _, f := range files {
			r, ok := f.results[k]
			switch {
			case !ok:
				fmt.Printf("  %*s", colW, "-")
			case r.Error != "":
				fmt.Printf("  %*s", colW, "error")
			default:
				fmt.Printf("  %*s", colW, report.FmtSec(r.TimeSec))
				if first == 0 {
					first = r.TimeSec
				}
				last = r.TimeSec
			}
		}
		fmt.Printf("  %*s\n", colW, driftLabel(first, last))
	}

	// Speedup trajectory: for each cell pair differing only in mode,
	// sync time over async time per file — the paper's headline number,
	// tracked across eras.
	type pair struct{ async, sync string }
	pairs := map[string]pair{}
	for _, k := range keys {
		parts := strings.Split(k, "/")
		if len(parts) != 8 {
			continue
		}
		mode := parts[1]
		parts[1] = "*"
		g := strings.Join(parts, "/")
		p := pairs[g]
		switch mode {
		case "async":
			p.async = k
		case "sync":
			p.sync = k
		}
		pairs[g] = p
	}
	groups := make([]string, 0, len(pairs))
	for g, p := range pairs {
		if p.async != "" && p.sync != "" {
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	if len(groups) > 0 {
		fmt.Println()
		header("Trend: async speedup (sync time / async time) per cell pair")
		for _, g := range groups {
			p := pairs[g]
			fmt.Printf("%-52s", g)
			var first, last float64
			for _, f := range files {
				a, aok := f.results[p.async]
				s, sok := f.results[p.sync]
				if !aok || !sok || a.Error != "" || s.Error != "" || a.TimeSec <= 0 {
					fmt.Printf("  %*s", colW, "-")
					continue
				}
				sp := s.TimeSec / a.TimeSec
				fmt.Printf("  %*s", colW, fmt.Sprintf("%.2fx", sp))
				if first == 0 {
					first = sp
				}
				last = sp
			}
			fmt.Printf("  %*s\n", colW, driftLabel(first, last))
		}
	}

	// Per-file footer: coverage and total host time, the cost side of
	// the trajectory.
	fmt.Println()
	for _, f := range files {
		cells, errs, host := 0, 0, 0.0
		for _, r := range f.results {
			cells++
			if r.Error != "" {
				errs++
			}
			host += r.HostSec
		}
		line := fmt.Sprintf("%-14s %3d cells", f.label, cells)
		if errs > 0 {
			line += fmt.Sprintf(", %d errored", errs)
		}
		if host > 0 {
			line += fmt.Sprintf(", %s host time", report.FmtSec(host))
		}
		fmt.Println(line)
	}
	return nil
}

// driftLabel formats the last/first ratio of a row, "-" when fewer than
// two values were seen or the trajectory is flat to the shown precision.
func driftLabel(first, last float64) string {
	if first <= 0 || last <= 0 || first == last {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(last/first-1))
}

// trendFiles loads the BENCH files of dir in name order. When both
// BENCH_x.json and BENCH_x.jsonl exist, only the .json is read — the
// .jsonl is its streaming sidecar, not an independent run.
func trendFiles(dir string) ([]trendFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasPrefix(n, "BENCH_") && (strings.HasSuffix(n, ".json") || strings.HasSuffix(n, ".jsonl")) {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		if strings.HasSuffix(n, ".jsonl") && names[strings.TrimSuffix(n, "l")] {
			continue
		}
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var files []trendFile
	for _, n := range sorted {
		results := map[string]report.Result{}
		if strings.HasSuffix(n, ".jsonl") {
			rows, err := report.ReadSidecar(filepath.Join(dir, n))
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				if !row.IsRepetition() {
					results[row.Result.Key()] = row.Result
				}
			}
		} else {
			set, err := report.ReadFile(filepath.Join(dir, n))
			if err != nil {
				return nil, err
			}
			for _, r := range set.Results {
				results[r.Key()] = r
			}
		}
		label := strings.TrimPrefix(n, "BENCH_")
		label = strings.TrimSuffix(strings.TrimSuffix(label, ".jsonl"), ".json")
		files = append(files, trendFile{label: label, results: results})
	}
	return files, nil
}
