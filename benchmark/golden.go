package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aiac/internal/matrix"
	"aiac/internal/report"
	"aiac/internal/trace"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds, for the default seed and full size, a digest of every
// simulated cell's virtual result: Rows by cell key as matrix.Run reports
// the cell (aggregated over the workload's repetitions), Reference by
// workload for repetition 0 of the reference cell alone, which is what the
// traced pass stages from outside.
type golden struct {
	Seed      int64             `json:"seed"`
	Rows      map[string]string `json:"rows"`
	Reference map[string]string `json:"reference"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("parsing embedded golden.json: %w", err)
	}
	return g, nil
}

// digest hashes every virtual field of a result — time, iterations,
// traffic, residual, outcome flags, protocol counters and constants,
// red flags, attribution seconds. Host time and the attempt count are the
// only fields that may differ between two runs of one simulation, so they
// are cleared first; the rest of the struct is hashed through its JSON
// form, which Go prints deterministically.
func digest(r report.Result) string {
	r.HostSec, r.Attempts = 0, 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers, strings and bools always marshals
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// updateGolden re-runs every simulated workload once at the default seed
// and rewrites dir/golden.json from what the program under test produced.
func updateGolden(dir string) error {
	g := golden{Seed: defaultSeed, Rows: map[string]string{}, Reference: map[string]string{}}
	for _, w := range workloads {
		if w.native {
			continue
		}
		spec := w.spec(1)
		fmt.Fprintf(os.Stderr, "golden: %s\n", w.name)
		set, err := matrix.Run(spec, w.options(defaultSeed))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, r := range set.Results {
			if r.Error != "" {
				return fmt.Errorf("%s: cell %s: %s", w.name, r.Key(), r.Error)
			}
			g.Rows[r.Key()] = digest(r)
		}
		ref, err := matrix.RunCellOnce(w.refCell(spec), spec, 0, defaultSeed, 0, trace.New())
		if err != nil {
			return fmt.Errorf("%s: reference cell: %w", w.name, err)
		}
		g.Reference[w.name] = digest(ref)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(b, '\n'), 0o644)
}
