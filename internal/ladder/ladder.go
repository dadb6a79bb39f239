// Package ladder is the test-side harness of the repository's measured
// tables: DES.md, KERNELS.md, TRACE.md, OVERLAP.md, MSGPATH.md, NATIVE.md
// and SPIN.md. A committed doc is the only home of its prose and of its
// recorded rows. A ladder test sets only the cells it measured, addressed
// by row and column header, and rewrites the doc's marked regions — the
// lines between "<!-- ladder:NAME -->" and "<!-- /ladder:NAME -->", which
// hold deterministic facts such as reference-cell lists. Every other byte
// stays as committed.
//
// Every ladder test checks its doc without timing anything: each row,
// column and region it writes exists and every table is well formed.
// Its measured half runs only when asked for:
//
//	LADDER_GATE=1  go test -p 1 -run Ladder ./...   measure and gate
//	LADDER_WRITE=1 go test -p 1 -run Ladder ./...   also rewrite the docs
//
// -p 1 keeps the timed code of two packages off each other's cores, and two
// ladders that write one doc (MSGPATH.md has three) off each other's edits.
package ladder

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Gate reports whether the measured half of a ladder runs: LADDER_GATE=1
// or LADDER_WRITE=1. When it does not, it logs how to ask for it.
func Gate(t testing.TB) bool {
	t.Helper()
	if on(t, "LADDER_GATE") || on(t, "LADDER_WRITE") {
		return true
	}
	t.Log("doc checked; set LADDER_GATE=1 or LADDER_WRITE=1 to measure")
	return false
}

// on reads a switch: unset, or 1.
func on(t testing.TB, knob string) bool {
	t.Helper()
	v := os.Getenv(knob)
	if v != "" && v != "1" {
		t.Fatalf("%s=%q: the switch is 1 or unset", knob, v)
	}
	return v == "1"
}

// Spec is what one ladder test writes in one doc.
type Spec struct {
	Doc     string // path from the repository root
	Regions []string
	Tables  []Table
}

// Table is one table of a doc and the cells a ladder measures in it.
type Table struct {
	// Anchor is a prefix of a line at or above the table: the table is the
	// first one from that line on.
	Anchor string
	// Key are the columns whose cells, joined by " | ", name a row.
	Key []string
	// Rows and Cols are the measured cells: every column of Cols in every
	// row of Rows.
	Rows, Cols []string
}

// Doc is a committed doc being checked or rewritten.
type Doc struct {
	t     testing.TB
	spec  Spec
	path  string
	orig  string
	lines []string
	set   map[string]bool // the cells and regions set so far
}

// Open reads s.Doc and fails t unless every table of it is well formed and
// every region marked once, and — one subtest per region and per table of
// s, so that a failure names it — every region, row and column of s is
// there.
func Open(t *testing.T, s Spec) *Doc {
	t.Helper()
	path := filepath.Join(Root(), s.Doc)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := parse(string(b))
	if err != nil {
		t.Fatalf("%s: %v", s.Doc, err)
	}
	d.t, d.path, d.spec = t, path, s
	for _, c := range d.checks() {
		t.Run(c.name, func(t *testing.T) {
			if c.err != nil {
				t.Errorf("%s: %v", s.Doc, c.err)
			}
		})
	}
	if t.Failed() {
		t.FailNow()
	}
	return d
}

// parse reads text and checks that every table of it is well formed and
// every region marked once.
func parse(text string) (*Doc, error) {
	d := &Doc{orig: text, lines: strings.Split(text, "\n"), set: map[string]bool{}}
	var errs []error
	for i := 0; i < len(d.lines); i++ {
		if !strings.HasPrefix(d.lines[i], "|") {
			continue
		}
		end := d.tableEnd(i)
		if err := checkTable(d.lines[i:end]); err != nil {
			errs = append(errs, fmt.Errorf("table at line %d: %w", i+1, err))
		}
		i = end
	}
	errs = append(errs, d.checkMarkers())
	return d, errors.Join(errs...)
}

// check is what the doc lacks of one region or one table of the spec.
type check struct {
	name string // "region NAME", or the table's anchor's words
	err  error
}

func (d *Doc) checks() (out []check) {
	for _, name := range d.spec.Regions {
		_, _, err := d.region(name)
		out = append(out, check{"region " + name, err})
	}
	for _, tb := range d.spec.Tables {
		var errs []error
		seen := map[string]bool{}
		for _, row := range tb.Rows {
			for _, col := range tb.Cols {
				if _, _, err := d.cell(tb, row, col); err != nil && !seen[err.Error()] {
					seen[err.Error()] = true
					errs = append(errs, err)
				}
			}
		}
		title := strings.FieldsFunc(tb.Anchor, func(r rune) bool { return strings.ContainsRune(" |#`:", r) })
		out = append(out, check{strings.Join(title, " "), errors.Join(errs...)})
	}
	return out
}

// cells splits a table line into its cells.
func cells(line string) []string {
	line = strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |")
	return strings.Split(line, " | ")
}

func joinCells(c []string) string { return "| " + strings.Join(c, " | ") + " |" }

// checkTable: a header, a separator of as many columns, and rows of as
// many cells, each line exactly what its cells join back to.
func checkTable(lines []string) error {
	head := cells(lines[0])
	if joinCells(head) != lines[0] {
		return fmt.Errorf("header %q is not of the form | a | b |", lines[0])
	}
	if sep := "|" + strings.Repeat("---|", len(head)); len(lines) < 2 || lines[1] != sep {
		return fmt.Errorf("no separator %q under the header", sep)
	}
	for _, l := range lines[2:] {
		if c := cells(l); len(c) != len(head) || joinCells(c) != l {
			return fmt.Errorf("row %q does not have the header's %d cells", l, len(head))
		}
	}
	return nil
}

// tableEnd is the index after the table that starts at line i.
func (d *Doc) tableEnd(i int) int {
	for i < len(d.lines) && strings.HasPrefix(d.lines[i], "|") {
		i++
	}
	return i
}

// Region markers.
func begin(name string) string { return "<!-- ladder:" + name + " -->" }
func end(name string) string   { return "<!-- /ladder:" + name + " -->" }

// checkMarkers: regions open and close in pairs, one at a time, each name
// once.
func (d *Doc) checkMarkers() error {
	open, seen := "", map[string]bool{}
	for i, l := range d.lines {
		name, isBegin := strings.CutPrefix(l, "<!-- ladder:")
		name, isEnd := strings.CutPrefix(name, "<!-- /ladder:")
		if !isBegin && !isEnd {
			continue
		}
		name, ok := strings.CutSuffix(name, " -->")
		switch {
		case !ok || name == "":
			return fmt.Errorf("line %d is not a region marker %s", i+1, begin("NAME"))
		case isBegin && (open != "" || seen[name]):
			return fmt.Errorf("line %d opens region %q inside %q or a second time", i+1, name, open)
		case isBegin:
			open, seen[name] = name, true
		case name != open:
			return fmt.Errorf("line %d closes region %q, but %q is open", i+1, name, open)
		default:
			open = ""
		}
	}
	if open != "" {
		return fmt.Errorf("region %q is never closed", open)
	}
	return nil
}

// region returns the lines [from, to) between name's markers.
func (d *Doc) region(name string) (from, to int, err error) {
	from, to = slices.Index(d.lines, begin(name)), slices.Index(d.lines, end(name))
	if from < 0 || to < from {
		return 0, 0, fmt.Errorf("no region %q (%s … %s)", name, begin(name), end(name))
	}
	return from + 1, to, nil
}

// table returns the line of tb's header.
func (d *Doc) table(tb Table) (int, error) {
	at := slices.IndexFunc(d.lines, func(l string) bool { return strings.HasPrefix(l, tb.Anchor) })
	for at >= 0 && at < len(d.lines) && !strings.HasPrefix(d.lines[at], "|") {
		at++
	}
	if at < 0 || at == len(d.lines) {
		return 0, fmt.Errorf("no table at or after a line starting %q", tb.Anchor)
	}
	return at, nil
}

// cell returns the line of row in tb and the index of col among its cells.
func (d *Doc) cell(tb Table, row, col string) (line, idx int, err error) {
	at, err := d.table(tb)
	if err != nil {
		return 0, 0, err
	}
	head := cells(d.lines[at])
	where := fmt.Sprintf("the table at line %d (%q)", at+1, tb.Anchor)
	if idx = slices.Index(head, col); idx < 0 {
		return 0, 0, fmt.Errorf("%s has no column %q", where, col)
	}
	key := make([]int, len(tb.Key))
	for i, k := range tb.Key {
		if key[i] = slices.Index(head, k); key[i] < 0 {
			return 0, 0, fmt.Errorf("%s has no key column %q", where, k)
		}
	}
	line = -1
	for i := at + 2; i < d.tableEnd(at); i++ {
		c := cells(d.lines[i])
		if len(c) != len(head) {
			continue
		}
		name := make([]string, len(key))
		for j, k := range key {
			name[j] = c[k]
		}
		if strings.Join(name, " | ") != row {
			continue
		}
		if line >= 0 {
			return 0, 0, fmt.Errorf("%s has row %q twice", where, row)
		}
		line = i
	}
	if line < 0 {
		return 0, 0, fmt.Errorf("%s has no row %q", where, row)
	}
	return line, idx, nil
}

// Tab is one table of an open doc.
type Tab struct {
	d  *Doc
	tb Table
}

// Table returns the table of the doc's spec with the given anchor.
func (d *Doc) Table(anchor string) Tab {
	d.t.Helper()
	i := slices.IndexFunc(d.spec.Tables, func(tb Table) bool { return tb.Anchor == anchor })
	if i < 0 {
		d.t.Fatalf("%s: the spec has no table %q", d.spec.Doc, anchor)
	}
	return Tab{d, d.spec.Tables[i]}
}

// at returns the line of a row of the table and the index of a column.
func (tb Tab) at(row, col string) (line, idx int) {
	tb.d.t.Helper()
	line, idx, err := tb.d.cell(tb.tb, row, col)
	if err != nil {
		tb.d.t.Fatalf("%s: %v", tb.d.spec.Doc, err)
	}
	return line, idx
}

// Setf sets a measured cell: one of the spec's rows and columns.
func (tb Tab) Setf(row, col, format string, args ...any) {
	d := tb.d
	d.t.Helper()
	if !slices.Contains(tb.tb.Rows, row) || !slices.Contains(tb.tb.Cols, col) {
		d.t.Fatalf("%s: row %q column %q is not a measured cell of %q", d.spec.Doc, row, col, tb.tb.Anchor)
	}
	line, idx := tb.at(row, col)
	c := cells(d.lines[line])
	c[idx] = fmt.Sprintf(format, args...)
	d.lines[line] = joinCells(c)
	d.set[tb.tb.Anchor+"\x00"+row+"\x00"+col] = true
}

// Get returns a cell of any row of the table, measured or recorded.
func (tb Tab) Get(row, col string) string {
	tb.d.t.Helper()
	line, idx := tb.at(row, col)
	return cells(tb.d.lines[line])[idx]
}

// Median is the median of a cell that lists runs, such as "2.96 2.64
// 3.01"; it fails the test, naming the cell, unless every field is a
// number and there is one.
func (tb Tab) Median(row, col string) float64 {
	tb.d.t.Helper()
	var xs []float64
	for _, f := range strings.Fields(tb.Get(row, col)) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			tb.d.t.Fatalf("%s: row %q column %q: %q is not a number", tb.d.spec.Doc, row, col, f)
		}
		xs = append(xs, x)
	}
	if len(xs) == 0 {
		tb.d.t.Fatalf("%s: row %q column %q lists no runs", tb.d.spec.Doc, row, col)
	}
	return Median(xs)
}

// Median is the median of xs, the upper one of an even count. xs must not
// be empty.
func Median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// Region replaces the lines of a region of the spec with text.
func (d *Doc) Region(name, text string) {
	d.t.Helper()
	if !slices.Contains(d.spec.Regions, name) {
		d.t.Fatalf("%s: region %q is not in the spec", d.spec.Doc, name)
	}
	from, to, err := d.region(name)
	if err != nil {
		d.t.Fatalf("%s: %v", d.spec.Doc, err)
	}
	d.lines = slices.Replace(d.lines, from, to, strings.Split(strings.TrimSuffix(text, "\n"), "\n")...)
	d.set["\x00"+name] = true
}

// Finish ends a measured run: it fails the test for every cell or region
// of the spec left unset, logs the doc's tables and regions as they now
// read, and under LADDER_WRITE=1 rewrites the doc in place.
func (d *Doc) Finish() {
	t := d.t
	t.Helper()
	var out strings.Builder
	for _, tb := range d.spec.Tables {
		for _, row := range tb.Rows {
			for _, col := range tb.Cols {
				if !d.set[tb.Anchor+"\x00"+row+"\x00"+col] {
					t.Errorf("%s: row %q column %q of %q was not measured", d.spec.Doc, row, col, tb.Anchor)
				}
			}
		}
		at, _ := d.table(tb)
		fmt.Fprintf(&out, "\n%s\n", strings.Join(d.lines[at:d.tableEnd(at)], "\n"))
	}
	for _, name := range d.spec.Regions {
		if !d.set["\x00"+name] {
			t.Errorf("%s: region %q was not written", d.spec.Doc, name)
		}
		from, to, _ := d.region(name)
		fmt.Fprintf(&out, "\n%s\n", strings.Join(d.lines[from:to], "\n"))
	}
	t.Logf("%s:%s", d.spec.Doc, out.String())
	if !on(t, "LADDER_WRITE") {
		return
	}
	if now, err := os.ReadFile(d.path); err != nil || string(now) != d.orig {
		t.Fatalf("%s changed since it was opened (%v): run the ladders one package at a time, go test -p 1", d.spec.Doc, err)
	}
	if err := os.WriteFile(d.path, []byte(strings.Join(d.lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", d.spec.Doc)
}

// Bit is a validity cell: 1 for valid, 0 for not.
func Bit(valid bool) int {
	if valid {
		return 1
	}
	return 0
}

// Root is the repository root, two directories above this file's own.
func Root() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Run runs a command in the repository root and returns its combined
// output. The command never sees LADDER_WRITE, and sees LADDER_GATE=1 only
// if gate is set: a ladder that runs another's test as one of its checks
// writes no doc, and one that runs its own package's tests runs its own
// ladder unmeasured.
func Run(gate bool, args ...string) (string, error) {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Dir = Root()
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "LADDER_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if gate {
		cmd.Env = append(cmd.Env, "LADDER_GATE=1")
	}
	out, err := cmd.CombinedOutput()
	return string(out), err
}
