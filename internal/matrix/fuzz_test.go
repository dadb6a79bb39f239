package matrix

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/report"
)

// A cell key is an outside input (aiacbench KEY, sidecar rows, the
// command line): parsing one must never panic, and whatever it accepts
// must name a cell whose own key parses back to it.
func FuzzParseKey(f *testing.F) {
	for _, k := range []string{
		"pm2/async/adsl/linear/p4/n12000/static/sim",
		"go/sync/multiproto/linear/p2/n60000/flaky-adsl/tcp",
		"mpi/sync/3site/chem/p8/n36/node-churn/sim-fast",
		"pm2,mpi/async/local/linear/p+4/n012/static/",
		"mpi/async/local/linear/p4/n600/static/sim",
		"pm2/async/adsl/linear/p0/n1/static/sim",
		"//////",
		"",
	} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		c, err := ParseKey(key)
		if err != nil {
			return
		}
		back, err := ParseKey(c.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q) accepted %+v, whose key %q is refused: %v", key, c, c.Key(), err)
		}
		if back != c {
			t.Fatalf("ParseKey(%q) = %+v, but its key %q parses to %+v", key, c, c.Key(), back)
		}
	})
}

// The axis filters of cmd/aiacbench never panic, accept
// only known values (positive ones, for the integer lists), and read back
// what they accepted when it is printed as a filter again.
func FuzzParseAxes(f *testing.F) {
	for _, csv := range []string{"", "pm2,mpi", " adsl , local ", "sync", "8,12,16", "sim,chan,tcp", ",", "0", "-3", "linear,chem", "static,flaky-adsl"} {
		f.Add(csv)
	}
	named := []struct {
		parse func(string) ([]string, error)
		known []string
	}{
		{ParseEnvs, EnvNames},
		{ParseGrids, GridNames},
		{ParseProblems, ProblemNames},
		{ParseScenarios, ScenarioNames},
		{ParseBackends, BackendNames},
	}
	f.Fuzz(func(t *testing.T, csv string) {
		for _, ax := range named {
			vs, err := ax.parse(csv)
			if err != nil {
				continue
			}
			if len(vs) == 0 {
				t.Fatalf("%q: accepted as an empty filter", csv)
			}
			for _, v := range vs {
				if !slices.Contains(ax.known, v) {
					t.Fatalf("%q: accepted unknown value %q", csv, v)
				}
			}
			if again, err := ax.parse(strings.Join(vs, ",")); err != nil || !reflect.DeepEqual(again, vs) {
				t.Fatalf("%q: accepted %v, which reads back as %v, %v", csv, vs, again, err)
			}
		}
		if ms, err := ParseModes(csv); err == nil {
			names := make([]string, len(ms))
			for i, m := range ms {
				names[i] = m.String()
			}
			again, err := ParseModes(strings.Join(names, ","))
			if err != nil || !reflect.DeepEqual(again, ms) || len(ms) == 0 {
				t.Fatalf("%q: modes %v read back as %v, %v", csv, ms, again, err)
			}
			for _, m := range ms {
				if m != aiac.Sync && m != aiac.Async {
					t.Fatalf("%q: accepted mode %d", csv, m)
				}
			}
		}
		if ns, err := ParseInts("procs", csv); err == nil && ns != nil {
			words := make([]string, len(ns))
			for i, n := range ns {
				if n <= 0 {
					t.Fatalf("%q: accepted %d", csv, n)
				}
				words[i] = strconv.Itoa(n)
			}
			if again, err := ParseInts("procs", strings.Join(words, ",")); err != nil || !reflect.DeepEqual(again, ns) {
				t.Fatalf("%q: accepted %v, which reads back as %v, %v", csv, ns, again, err)
			}
		}
	})
}

// A cell's row must not depend on the order its repetitions completed in,
// bit for bit, whatever the repetitions hold: NaN (two payloads), ±Inf
// and ±0 included. Each repetition draws its columns from small value sets
// (ties are the point) off the fuzzed bytes; the first may carry an
// attribution, as the traced repetition does.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte{2, 0, 1, 6, 6, 3, 1, 0, 1})
	f.Add([]byte{5, 6, 7, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{3, 1, 1, 1, 1, 0, 0, 0, 0, 4, 4, 4, 4, 5, 5, 5, 5})
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1e-6}
	flags := []string{"", "plateau", "non-finite,oscillation", "oscillation"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		rs := make([]report.Result, 1+next()%6)
		for i := range rs {
			rs[i] = report.Result{
				Reps: 1, GraceSec: 0.05,
				TimeSec: floats[next()%len(floats)], Residual: floats[next()%len(floats)],
				ReconvergeSec: floats[next()%len(floats)], WallSec: floats[next()%len(floats)],
				Iters: next() % 3, Messages: uint64(next() % 3), Bytes: uint64(next() % 3),
				InterSite: uint64(next() % 3), Dropped: uint64(next() % 3), Restarts: next() % 3,
				Heartbeats: next() % 3, StopRebroadcasts: next() % 3, ReconfirmRounds: next() % 3,
				Converged: next()%2 == 0, Stalled: next()%2 == 0, Flags: flags[next()%len(flags)],
			}
			rs[i].MinTimeSec = rs[i].TimeSec
		}
		if next()%2 == 1 {
			rs[0].AttrTotalSec, rs[0].AttrComputeSec, rs[0].AttrProtocolSec = 1, 0.75, 0.25
		}
		base := rowBits(aggregate(slices.Clone(rs)))
		rev := slices.Clone(rs)
		slices.Reverse(rev)
		for _, order := range [][]report.Result{rs, rev} {
			for k := range order {
				perm := append(slices.Clone(order[k:]), order[:k]...)
				if got := rowBits(aggregate(perm)); got != base {
					t.Fatalf("aggregate depends on repetition order:\nbase %s\ngot  %s\nreps %+v", base, got, perm)
				}
			}
		}
	})
}
