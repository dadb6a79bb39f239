package golden

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// result is a row type with the tags report.Result has.
type result struct {
	Iters    int     `json:"iters"`
	TimeSec  float64 `json:"time_sec"`
	Restarts int     `json:"restarts,omitempty"`
	Flags    string  `json:"flags,omitempty"`
	HostSec  float64 `json:"host_sec"`
	Resumed  bool    `json:"-"`
}

func row(key string, r result, extra ...Field) Row {
	return Row{Key: key, Fields: append(Struct(r, "host_sec"), extra...)}
}

func TestCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	a := result{Iters: 100, TimeSec: 38.642, Restarts: 2, Flags: "plateau", HostSec: 1}
	b := result{Iters: 200, TimeSec: 1.5}
	t.Setenv("GOLDEN_WRITE", "1")
	Check(t, path, []Row{row("a", a), row("b", b)})
	recorded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		got             []Row
		failures, notes []string // failures: one per row
		summary         string   // a part of the closing summary
	}{
		{name: "unchanged", got: []Row{row("a", a), row("b", b)}},
		{name: "host time and unlisted fields do not count",
			got: []Row{row("a", result{Iters: 100, TimeSec: 38.642, Restarts: 2, Flags: "plateau", HostSec: 7, Resumed: true}), row("b", b)}},
		{name: "a recorded row not produced", got: []Row{row("a", a)},
			failures: []string{"b: recorded, not produced by any case"}, summary: "0 of 1 rows moved, 1 recorded rows not produced"},
		{name: "a produced row not recorded", got: []Row{row("a", a), row("b", b), row("c", b)},
			failures: []string{"c: produced, not recorded"}, summary: "1 produced rows not recorded"},
		{name: "a value falls to zero under omitempty", got: []Row{row("a", result{Iters: 100, TimeSec: 38.642, Flags: "plateau"}), row("b", b)},
			failures: []string{"a: restarts 2 → 0 (-100 %)"}, summary: "1 of 2 rows moved"},
		{name: "a float64 one ulp off", got: []Row{row("a", result{Iters: 100, TimeSec: math.Nextafter(38.642, 39), Restarts: 2, Flags: "plateau"}), row("b", b)},
			failures: []string{"a: time_sec 38.642 → 38.64200000000001 (+1.84e-14 %)"}},
		{name: "a recorded field no longer produced", got: []Row{row("a", a), {Key: "b", Fields: row("b", b).Fields[:3]}},
			failures: []string{`b: flags "" → no longer produced`}},
		{name: "a new field passes and is noted", got: []Row{row("a", a), row("b", b, Field{"dummy", 0})},
			notes: []string{`new field "dummy" in 1 of 2 rows, e.g. b`}},
		{name: "per-field diffs and the worst shift",
			got: []Row{row("a", result{Iters: 99, TimeSec: 38.601, Flags: "oscillation"}), row("b", result{Iters: 210, TimeSec: 1.5})},
			failures: []string{
				`a: iters 100 → 99 (-1 %), time_sec 38.642 → 38.601 (-0.106 %), restarts 2 → 0 (-100 %), flags "plateau" → "oscillation"`,
				"b: iters 200 → 210 (+5 %)",
			},
			summary: "2 of 2 rows moved, 0 recorded rows not produced, 0 produced rows not recorded\n" +
				"  iters                  2 rows, worst b: 200 → 210 (+5 %)\n" +
				"  time_sec               1 rows, worst a: 38.642 → 38.601 (-0.106 %)\n" +
				"  restarts               1 rows, worst a: 2 → 0 (-100 %)\n" +
				`  flags                  1 rows, worst a: "plateau" → "oscillation"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := compare(recorded, tc.got)
			if strings.Join(d.failures, "\n") != strings.Join(tc.failures, "\n") || strings.Join(d.notes, "\n") != strings.Join(tc.notes, "\n") {
				t.Errorf("failures %q, notes %q; want %q, %q", d.failures, d.notes, tc.failures, tc.notes)
			}
			if s := d.summary(path); !strings.Contains(s, tc.summary) {
				t.Errorf("summary %q, want it to hold %q", s, tc.summary)
			}
		})
	}
}

// errs keeps what CheckRow reports instead of failing the test.
type errs struct {
	testing.TB
	got []string
}

func (e *errs) Helper()           {}
func (e *errs) Error(args ...any) { e.got = append(e.got, fmt.Sprint(args...)) }

func TestCheckRow(t *testing.T) {
	recorded := map[string]map[string]json.RawMessage{"a": {"iters": json.RawMessage("100"), "restarts": json.RawMessage("2")}}
	for _, tc := range []struct {
		row  Row
		want string // the one failure; "" passes
	}{
		{Row{"a", []Field{{"iters", 100}, {"restarts", 2}, {"dummy", 0}}}, ""},
		{Row{"a", []Field{{"iters", 100}, {"restarts", 0}}}, "a: restarts 2 → 0 (-100 %)"},
		{Row{"b", []Field{{"iters", 100}}}, "b: produced, not recorded"},
	} {
		e := &errs{TB: t}
		if CheckRow(e, recorded, tc.row); strings.Join(e.got, "\n") != tc.want {
			t.Errorf("%s: failures %q, want %q", tc.row.Key, e.got, tc.want)
		}
	}
}
