package report

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSidecar appends an arbitrary tail to a sidecar holding three
// valid rows: whatever the tail is — a line truncated mid-append, foreign
// bytes, more valid rows — the reader must never return an error and must
// recover the three-row valid prefix intact.
func FuzzReadSidecar(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"cache_key":"k4","result":{"env":"pm2"`)) // truncated append
	f.Add([]byte("not json\n\n{\"cache_key\":\"k5\",\"result\":{}}\n"))
	f.Add([]byte{0x00, 0xFF, '\n', '{'})

	var prefix []byte
	keys := []string{"k1", "k2", "k3"}
	results := []Result{
		{Env: "pm2", Mode: "async", Grid: "adsl", Problem: "linear", Procs: 8, Size: 1000, TimeSec: 1.5, Converged: true},
		{Env: "mpi", Mode: "sync", Grid: "3site", Problem: "linear", Procs: 8, Size: 1000, Iters: 42},
		{Env: "omniorb", Mode: "async", Grid: "local", Problem: "chem", Procs: 4, Size: 36, Stalled: true},
	}

	f.Fuzz(func(t *testing.T, tail []byte) {
		if prefix == nil {
			dir := t.TempDir()
			path := filepath.Join(dir, "seed.jsonl")
			w, err := CreateSidecar(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if err := w.Append(k, results[i]); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			if prefix, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "s.jsonl")
		if err := os.WriteFile(path, append(append([]byte(nil), prefix...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		rows, err := ReadSidecar(path)
		if err != nil {
			t.Fatalf("reader errored on tail %q: %v", tail, err)
		}
		if len(rows) < len(keys) {
			t.Fatalf("valid prefix lost: %d rows, want at least %d (tail %q)", len(rows), len(keys), tail)
		}
		for i, k := range keys {
			if rows[i].CacheKey != k {
				t.Fatalf("row %d key = %q, want %q (tail %q)", i, rows[i].CacheKey, k, tail)
			}
			if rows[i].Result != results[i] {
				t.Fatalf("row %d result mutated by tail %q:\ngot  %+v\nwant %+v", i, tail, rows[i].Result, results[i])
			}
		}
	})
}
