package ladder

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

const doc = `# A table

<!-- ladder:cells -->
- one
<!-- /ladder:cells -->

| rung | n | valid | ms | note |
|---|---|---|---|---|
| base | 10 | 1 | 2.0 | frozen |
| shipped | 10 | 1 | 1.0 | new |
| lost | 10 | 1 | 0.5 | recorded |
`

var spec = Spec{Regions: []string{"cells"}, Tables: []Table{{
	Anchor: "| rung", Key: []string{"rung", "n"},
	Rows: []string{"base | 10", "shipped | 10"}, Cols: []string{"valid", "ms"},
}}}

// fatal runs f as a test body and returns the message it failed with, or ""
// when it did not fail.
func fatal(t *testing.T, f func(tb testing.TB)) string {
	r := &recorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f(r)
	}()
	<-done
	return r.msg
}

type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

func (r *recorder) Errorf(format string, args ...any) { r.msg = fmt.Sprintf(format, args...) }

// checked is what Open checks of text against s.
func checked(text string, s Spec) (*Doc, error) {
	d, err := parse(text)
	d.spec = s
	errs := []error{err}
	for _, c := range d.checks() {
		errs = append(errs, c.err)
	}
	return d, errors.Join(errs...)
}

func open(tb testing.TB, text string) *Doc {
	d, err := checked(text, spec)
	if err != nil {
		tb.Fatalf("%v", err)
	}
	d.t = tb
	return d
}

// Setting one measured cell of a real committed doc, or a region, to what
// it holds changes no byte of it, and setting either to something else
// changes only that cell or those lines.
func TestEditChangesOnlyItsBytes(t *testing.T) {
	s := Spec{Doc: "KERNELS.md", Regions: []string{"machine"}, Tables: []Table{{Anchor: "## large:", Key: []string{"variant"},
		Rows: []string{"step-baseline"}, Cols: []string{"ns/op"}}}}
	d := Open(t, s)
	tab := d.Table("## large:")
	old, from, to := tab.Get("step-baseline", "ns/op"), slices.Index(d.lines, begin("machine"))+1, slices.Index(d.lines, end("machine"))
	machine := strings.Join(d.lines[from:to], "\n")
	tab.Setf("step-baseline", "ns/op", "%s", old)
	d.Region("machine", machine)
	if strings.Join(d.lines, "\n") != d.orig {
		t.Fatal("setting a cell and a region to their own values changed the doc")
	}
	tab.Setf("step-baseline", "ns/op", "424242")
	d.Region("machine", "on a machine\nof two lines.")
	want := strings.Replace(d.orig, "| step-baseline | 1 | "+old+" |", "| step-baseline | 1 | 424242 |", 1)
	want = strings.Replace(want, machine, "on a machine\nof two lines.", 1)
	if got := strings.Join(d.lines, "\n"); got != want || strings.Count(d.orig, "| step-baseline | 1 | "+old+" |") != 1 {
		t.Errorf("edited doc:\n%s\nwant:\n%s", got, want)
	}
}

func TestMissingAddressFails(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"row", func(s *Spec) { s.Tables[0].Rows = []string{"gone | 10"} }, `no row "gone | 10"`},
		{"column", func(s *Spec) { s.Tables[0].Cols = []string{"GB/s"} }, `no column "GB/s"`},
		{"key", func(s *Spec) { s.Tables[0].Key = []string{"rung", "size"} }, `no key column "size"`},
		{"table", func(s *Spec) { s.Tables[0].Anchor = "## none" }, `no table at or after a line starting "## none"`},
		{"region", func(s *Spec) { s.Regions = []string{"machine"} }, `no region "machine"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := spec
			s.Tables = []Table{spec.Tables[0]}
			c.edit(&s)
			if _, err := checked(doc, s); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error naming %s", err, c.want)
			}
		})
	}
}

func TestMalformedFails(t *testing.T) {
	for _, c := range []struct{ name, old, new, want string }{
		{"unclosed region", "<!-- /ladder:cells -->\n", "", `region "cells" is never closed`},
		{"nested region", "- one\n", "<!-- ladder:inner -->\n", `opens region "inner" inside "cells"`},
		{"stray close", "# A table\n", "<!-- /ladder:cells -->\n", `closes region "cells"`},
		{"bad marker", "<!-- ladder:cells -->", "<!-- ladder:cells", "is not a region marker"},
		{"short row", "| lost | 10 | 1 | 0.5 | recorded |", "| lost | 10 | 1 | recorded |", "does not have the header's 5 cells"},
		{"no separator", "|---|---|---|---|---|\n", "", "no separator"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := checked(strings.Replace(doc, c.old, c.new, 1), spec); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}

func TestSetOnlyMeasuredCells(t *testing.T) {
	t.Setenv("LADDER_WRITE", "")
	if msg := fatal(t, func(tb testing.TB) { open(tb, doc).Table("| rung").Setf("lost | 10", "ms", "1") }); !strings.Contains(msg, "not a measured cell") {
		t.Errorf("setting a recorded row: %q", msg)
	}
	if msg := fatal(t, func(tb testing.TB) { open(tb, doc).Finish() }); !strings.Contains(msg, "was not") {
		t.Errorf("finishing with nothing measured: %q", msg)
	}
}

// The median of a recorded cell fails the test, naming the cell, when a
// field is not a number or there is none.
func TestMedianRefusesBadInput(t *testing.T) {
	text := strings.Replace(doc, "| lost | 10 | 1 | 0.5 |", "| lost | 10 | 1 | 0.5 0.7 x |", 1)
	text = strings.Replace(text, "| base | 10 | 1 | 2.0 |", "| base | 10 | 1 |  |", 1)
	for row, want := range map[string]string{
		"lost | 10":    `row "lost | 10" column "ms": "x" is not a number`,
		"base | 10":    `row "base | 10" column "ms" lists no runs`,
		"shipped | 10": "",
	} {
		if msg := fatal(t, func(tb testing.TB) { open(tb, text).Table("| rung").Median(row, "ms") }); !strings.Contains(msg, want) || (want == "") != (msg == "") {
			t.Errorf("median of %s: failed with %q, want %q", row, msg, want)
		}
	}
	if m := Median([]float64{3, 1, 2, 5}); m != 3 {
		t.Errorf("median of 3 1 2 5 = %v, want the upper middle, 3", m)
	}
}
