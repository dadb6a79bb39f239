package report

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleResult(env string, t float64) Result {
	return Result{
		Env: env, Mode: "async", Grid: "local", Problem: "linear",
		Procs: 4, Size: 1000, Reps: 1, TimeSec: t, MinTimeSec: t,
		Iters: 100, Messages: 10, Bytes: 1000, Converged: true, HostSec: 0.5,
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	w, err := CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("key-a", sampleResult("pm2", 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("key-b", sampleResult("madmpi", 2.5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].CacheKey != "key-a" || rows[0].Result != sampleResult("pm2", 1.5) {
		t.Errorf("row 0 did not round-trip: %+v", rows[0])
	}
	if rows[1].CacheKey != "key-b" || rows[1].Result.Env != "madmpi" {
		t.Errorf("row 1 did not round-trip: %+v", rows[1])
	}
}

// A sidecar whose writer was killed mid-append ends in a truncated line;
// reading it must return every complete row and drop the ruin. Foreign
// lines and well-formed JSON without a cache key are dropped the same way,
// and the rows after them still come back in write order.
func TestSidecarTruncatedTailDropped(t *testing.T) {
	const rowB = `{"cache_key":"key-b","result":{"env":"mpi"}}` + "\n"
	for _, tc := range []struct {
		name, tail string
		want       []string
	}{
		{"truncated tail", `{"cache_key":"key-b","result":{"env":"mad`, []string{"key-a"}},
		{"foreign line", "not json at all\n" + rowB, []string{"key-a", "key-b"}},
		{"empty cache key", `{"some":"other","valid":"json"}` + "\n" + rowB, []string{"key-a", "key-b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.jsonl")
			w, err := CreateSidecar(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append("key-a", sampleResult("pm2", 1.5)); err != nil {
				t.Fatal(err)
			}
			w.Close()
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			rows, err := ReadSidecar(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range rows {
				got = append(got, r.CacheKey)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("read rows %v, want %v", got, tc.want)
			}
		})
	}
}

// Appending after a crash (AppendSidecar) extends the file; the reader
// returns rows in write order so later rows can supersede earlier ones.
func TestSidecarAppendAndOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	w, err := CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("key-a", sampleResult("pm2", 1.5)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := AppendSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append("key-a", sampleResult("pm2", 9.5)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	rows, err := ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[1].Result.TimeSec != 9.5 {
		t.Errorf("append order lost: %+v", rows)
	}
}

// The Resumed marker is runtime-only: it must never reach the persisted
// row, so a resumed sweep's output is indistinguishable from a fresh one.
func TestSidecarNeverPersistsResumed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	w, err := CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	r := sampleResult("pm2", 1.5)
	r.Resumed = true
	if err := w.Append("key-a", r); err != nil {
		t.Fatal(err)
	}
	w.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "esumed") {
		t.Fatalf("Resumed leaked into the persisted row: %s", b)
	}
	rows, err := ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Result.Resumed {
		t.Error("Resumed must not round-trip")
	}
}

func TestReadSidecarMissingFile(t *testing.T) {
	if _, err := ReadSidecar(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("reading a missing sidecar should fail loudly (a typo'd -resume must not silently restart the sweep)")
	}
}

// A row whose residual is not finite — a solve that ended on NaN data —
// persists and reads back through the sidecar and the results file; a
// finite residual still encodes as a JSON number.
func TestNonFiniteResidualRoundTrips(t *testing.T) {
	dir := t.TempDir()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2.5e-7} {
		r := sampleResult("pm2", 1.5)
		r.Residual = v
		w, err := CreateSidecar(filepath.Join(dir, "s.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(RepetitionKey("key", 1), r); err != nil {
			t.Fatalf("residual %g: %v", v, err)
		}
		w.Close()
		rows, err := ReadSidecar(filepath.Join(dir, "s.jsonl"))
		if err != nil || len(rows) != 1 || !rows[0].IsRepetition() {
			t.Fatalf("residual %g: read %d rows, %v", v, len(rows), err)
		}
		if err := WriteFile(filepath.Join(dir, "r.json"), &Set{Results: []Result{r}}); err != nil {
			t.Fatalf("residual %g: %v", v, err)
		}
		set, err := ReadFile(filepath.Join(dir, "r.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []Result{rows[0].Result, set.Results[0]} {
			if math.Float64bits(got.Residual) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(got.Residual)) {
				t.Errorf("residual %g read back as %g", v, got.Residual)
			}
			want := r
			got.Residual, want.Residual = 0, 0
			if got != want {
				t.Errorf("residual %g: row read back as %+v", v, got)
			}
		}
	}
	b, err := json.Marshal(sampleResult("pm2", 1.5))
	if err != nil || !strings.Contains(string(b), `"residual":0,`) {
		t.Errorf("a finite residual encodes as %s, %v; want a number", b, err)
	}
	var r Result
	if err := json.Unmarshal([]byte(`{"residual":"1e-5"}`), &r); err == nil {
		t.Errorf("a finite residual in a string was accepted as %g", r.Residual)
	}
	if err := json.Unmarshal([]byte(`{"residual":null}`), &r); err != nil || r.Residual != 0 {
		t.Errorf("a null residual read as %g, %v; want 0 as encoding/json reads it", r.Residual, err)
	}
}
