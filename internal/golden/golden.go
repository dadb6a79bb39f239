// Package golden keeps recorded rows of virtual results and checks the rows
// a test produces against them, field by field. A file holds one JSON
// object per line, {"key": …, "<field>": value, …}; two values are equal
// when their JSON texts are, so a float64 matches only bit for bit.
package golden

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Row is one row: a key and named values, in the order they are written.
type Row struct {
	Key    string
	Fields []Field
}

// Field is one named value: anything encoding/json marshals.
type Field struct {
	Name  string
	Value any
}

// Struct returns the exported fields of the struct v under their JSON
// names, in declaration order, leaving out those tagged "-" and those named
// in drop. Every other field is returned whatever its value: an omitempty
// tag would make a value that falls to zero vanish from the row.
func Struct(v any, drop ...string) []Field {
	rv := reflect.ValueOf(v)
	var out []Field
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name = cmp.Or(name, f.Name); f.IsExported() && name != "-" && !slices.Contains(drop, name) {
			out = append(out, Field{name, rv.Field(i).Interface()})
		}
	}
	return out
}

// Read returns the rows recorded in path by key, their fields by name.
func Read(path string) (map[string]map[string]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]map[string]json.RawMessage{}
	for dec, n := json.NewDecoder(bytes.NewReader(data)), 1; dec.More(); n++ {
		row, key := map[string]json.RawMessage{}, ""
		if err := dec.Decode(&row); err != nil || json.Unmarshal(row["key"], &key) != nil || key == "" || rows[key] != nil {
			return nil, fmt.Errorf("%s: row %d: malformed, or its key missing or repeated", path, n)
		}
		delete(row, "key")
		rows[key] = row
	}
	return rows, nil
}

// Check compares rows with the rows recorded in path, reports each moved
// row as one line of per-field diffs, then a summary: rows moved, and per
// field its count and worst shift. A produced field the record lacks is
// logged as new and passes; a changed value, a recorded field or row no
// longer produced and a produced row with no record fail. GOLDEN_WRITE=1
// rewrites path from rows instead and logs the same summary.
func Check(t testing.TB, path string, rows []Row) {
	t.Helper()
	write := os.Getenv("GOLDEN_WRITE") == "1"
	want, err := Read(path)
	if err != nil && !(write && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("golden: %v", err)
	}
	var file bytes.Buffer
	for _, r := range rows {
		key, _ := json.Marshal(r.Key) // a string always marshals
		file.WriteString(`{"key":` + string(key))
		for j, f := range r.Fields {
			name, _ := json.Marshal(f.Name)
			text, err := json.Marshal(f.Value)
			if err != nil || f.Name == "key" || slices.ContainsFunc(r.Fields[:j], func(g Field) bool { return g.Name == f.Name }) {
				t.Fatalf("golden: %s: field %q is repeated, is named key, or does not marshal (%v)", r.Key, f.Name, err)
			}
			fmt.Fprintf(&file, ",%s:%s", name, text)
		}
		file.WriteString("}\n")
	}
	d := compare(want, rows)
	if write {
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		t.Logf("golden: wrote %d rows to %s\n%s", len(rows), path, d.summary(path))
		return
	}
	for _, n := range d.notes {
		t.Logf("golden: %s: %s", path, n)
	}
	if len(d.failures) > 0 {
		t.Errorf("%s\n%s", strings.Join(d.failures, "\n"), d.summary(path))
	}
}

// CheckRow fails t with row's per-field diffs against its record in
// recorded (as Read returns it), or if it has none: for a test that checks
// each row in a subtest. Check over all the rows still finds the recorded
// rows no case produced and sums up. Under GOLDEN_WRITE=1 it checks nothing.
func CheckRow(t testing.TB, recorded map[string]map[string]json.RawMessage, row Row) {
	t.Helper()
	one := map[string]map[string]json.RawMessage{row.Key: recorded[row.Key]} // nil: not recorded
	if d := compare(one, []Row{row}); len(d.failures) > 0 && os.Getenv("GOLDEN_WRITE") != "1" {
		t.Error(d.failures[0])
	}
}

// diff is what compare found: failures, notes of new fields, and counts.
type diff struct {
	failures, notes                []string
	checked, moved, orphans, extra int
	fields                         []fieldMoves // in the order they first moved
}

// fieldMoves is one field's moves: how many, and the largest.
type fieldMoves struct {
	name, worst string
	count       int
	shift       float64 // the worst's relative size; +Inf if gone, from zero or not a number
}

// tally counts a move of name in *list and keeps the largest.
func tally(list *[]fieldMoves, name, worst string, shift float64) {
	i := slices.IndexFunc(*list, func(m fieldMoves) bool { return m.name == name })
	if i < 0 {
		i, *list = len(*list), append(*list, fieldMoves{name: name, shift: -1})
	}
	m := &(*list)[i]
	if m.count++; shift > m.shift {
		m.worst, m.shift = worst, shift
	}
}

// compare checks got, whose values marshal, against recorded.
func compare(recorded map[string]map[string]json.RawMessage, got []Row) diff {
	var d diff
	var added []fieldMoves // new fields, each with the first row that has it
	produced := map[string]bool{}
	for _, g := range got {
		rec := recorded[g.Key] // Read makes no nil row
		if produced[g.Key] = true; rec == nil {
			d.extra++
			d.failures = append(d.failures, g.Key+": produced, not recorded")
			continue
		}
		d.checked++
		var line []string
		for _, f := range g.Fields {
			if was, ok := rec[f.Name]; !ok {
				tally(&added, f.Name, g.Key, 0)
			} else if now, _ := json.Marshal(f.Value); !bytes.Equal(was, now) {
				what, shift := describe(was, now)
				line = append(line, f.Name+" "+what)
				tally(&d.fields, f.Name, g.Key+": "+what, shift)
			}
		}
		for _, name := range slices.Sorted(maps.Keys(rec)) {
			if !slices.ContainsFunc(g.Fields, func(f Field) bool { return f.Name == name }) {
				what := string(rec[name]) + " → no longer produced"
				line = append(line, name+" "+what)
				tally(&d.fields, name, g.Key+": "+what, math.Inf(1))
			}
		}
		if len(line) > 0 {
			d.moved++
			d.failures = append(d.failures, g.Key+": "+strings.Join(line, ", "))
		}
	}
	for _, key := range slices.Sorted(maps.Keys(recorded)) {
		if !produced[key] {
			d.orphans++
			d.failures = append(d.failures, key+": recorded, not produced by any case")
		}
	}
	for _, m := range added {
		d.notes = append(d.notes, fmt.Sprintf("new field %q in %d of %d rows, e.g. %s", m.name, m.count, d.checked, m.worst))
	}
	return d
}

// describe renders a move and returns its relative size.
func describe(was, now json.RawMessage) (string, float64) {
	what := fmt.Sprintf("%s → %s", was, now)
	a, errA := strconv.ParseFloat(string(was), 64)
	b, errB := strconv.ParseFloat(string(now), 64)
	if errA != nil || errB != nil || a == 0 {
		return what, math.Inf(1)
	}
	pct := 100 * (b - a) / math.Abs(a)
	return fmt.Sprintf("%s (%+.3g %%)", what, pct), math.Abs(pct)
}

// summary is the closing report: rows moved, then one line per field.
func (d diff) summary(path string) string {
	s := fmt.Sprintf("golden: %s: %d of %d rows moved, %d recorded rows not produced, %d produced rows not recorded",
		path, d.moved, d.checked, d.orphans, d.extra)
	for _, m := range d.fields {
		s += fmt.Sprintf("\n  %-22s %d rows, worst %s", m.name, m.count, m.worst)
	}
	return s
}
