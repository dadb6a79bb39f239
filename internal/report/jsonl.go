package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// The JSONL sidecar is the streaming, crash-safe companion of the JSON
// result file: while a sweep runs, every completed cell is appended to the
// sidecar as one self-contained line and fsync'd, so an interrupted sweep
// loses at most the line being written when the process died. A later
// sweep reads the sidecar back (ReadSidecar) and reuses every row whose
// content address still matches, re-executing only what changed — the
// -resume flow of cmd/aiacbench.

// SidecarRow is one line of the sidecar: a completed cell's result plus
// the content address under which it may be reused.
type SidecarRow struct {
	// CacheKey is the cell's content address: cell key, problem
	// parameters, seeds, repetition count, report schema, protocol
	// constants and (for native cells) the wall-clock guard. A row is
	// reused by a resumed sweep only when the address matches exactly, so
	// any parameter change invalidates it without any versioning logic.
	CacheKey string `json:"cache_key"`
	Result   Result `json:"result"`
}

// repSep joins a cell's content address and a repetition index in the
// address of a repetition row.
const repSep = "|rep="

// RepetitionKey is the content address of repetition rep of the cell at
// cacheKey: a sweep records each finished repetition of a multi-repetition
// cell under it, so an interrupted sweep resumes the cell's missing
// repetitions only.
func RepetitionKey(cacheKey string, rep int) string {
	return fmt.Sprintf("%s%s%d", cacheKey, repSep, rep)
}

// IsRepetition reports whether the row records one repetition of a cell
// (RepetitionKey) rather than the cell's aggregated result.
func (r SidecarRow) IsRepetition() bool {
	return strings.Contains(r.CacheKey, repSep)
}

// SidecarWriter appends rows to a sidecar file, fsync'ing each one so a
// crash never loses a completed cell. It is safe for concurrent use by
// the sweep's worker pool.
type SidecarWriter struct {
	mu sync.Mutex
	f  *os.File
}

// CreateSidecar truncates (or creates) path and returns a writer for a
// fresh sweep.
func CreateSidecar(path string) (*SidecarWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &SidecarWriter{f: f}, nil
}

// AppendSidecar opens path for appending (creating it if absent) — the
// resumed-sweep mode, where new rows extend the interrupted run's file.
func AppendSidecar(path string) (*SidecarWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &SidecarWriter{f: f}, nil
}

// Append writes one row and syncs it to disk.
func (w *SidecarWriter) Append(cacheKey string, r Result) error {
	b, err := json.Marshal(SidecarRow{CacheKey: cacheKey, Result: r})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(b); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *SidecarWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReadSidecar loads the rows of a sidecar file in write order. Lines that
// do not parse — in particular a final line truncated when the writing
// process was killed mid-append — and lines without a cache key are
// dropped rather than failing the load, so a crashed sweep's sidecar is
// always readable. When the same cache key appears more than once (a
// resumed sweep appending to its predecessor's file), later rows supersede
// earlier ones at lookup time; this function returns them all.
func ReadSidecar(path string) ([]SidecarRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []SidecarRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var row SidecarRow
		// A line that does not parse, or parses without a content
		// address, is not a row a sweep wrote whole.
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil || row.CacheKey == "" {
			continue
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}
