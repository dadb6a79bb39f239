package trace

import (
	"reflect"
	"testing"

	"aiac/internal/des"
)

// op is one step of a recording history: an AddSpan call, or — direct — a
// span appended to Collector.Spans behind AddSpan's back, the way
// backend.Run merges its per-rank collectors.
type op struct {
	s      Span
	direct bool
}

// record plays ops into a fresh collector and returns it with, per rank,
// the single-iteration spans the history put in, in order.
func record(ops []op) (*Collector, map[int][]Span) {
	c := New()
	want := make(map[int][]Span)
	for _, o := range ops {
		s := o.s
		if o.direct {
			c.Spans = append(c.Spans, s)
		} else {
			c.AddSpan(s.Rank, s.Start, s.End, s.Kind, s.Iter)
		}
		if s.End <= s.Start {
			continue // AddSpan ignores empty intervals; no history appends one
		}
		for k := 0; k < s.Iters(); k++ {
			want[s.Rank] = append(want[s.Rank], s.At(k))
		}
	}
	return c, want
}

// expanded returns, per rank, every recorded run expanded to its
// iterations.
func expanded(c *Collector) map[int][]Span {
	got := make(map[int][]Span)
	for _, s := range c.Spans {
		for k := 0; k < s.Iters(); k++ {
			got[s.Rank] = append(got[s.Rank], s.At(k))
		}
	}
	return got
}

func checkLossless(t *testing.T, ops []op) *Collector {
	t.Helper()
	c, want := record(ops)
	if got := expanded(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion differs from the recorded history:\n got  %v\n want %v\n spans %v", got, want, c.Spans)
	}
	iters := 0
	for _, spans := range want {
		for _, s := range spans {
			if s.Kind == Compute {
				iters++
			}
		}
	}
	if c.Iterations() != iters {
		t.Fatalf("Iterations() = %d, history has %d compute iterations", c.Iterations(), iters)
	}
	return c
}

// TestRunsExpandToInput: whatever the history — iterations that continue a
// run, and every way of not continuing one — expanding the recorded runs
// gives back each rank's AddSpan sequence exactly, in as few records as the
// extension rule allows.
func TestRunsExpandToInput(t *testing.T) {
	add := func(rank int, start, end des.Time, kind Kind, iter int) op {
		return op{s: Span{Rank: rank, Start: start, End: end, Kind: kind, Iter: iter}}
	}
	direct := func(s Span) op { return op{s: s, direct: true} }
	cases := []struct {
		name    string
		ops     []op
		records int
	}{
		{"contiguous equal stride", []op{
			add(0, 10, 13, Compute, 5), add(0, 13, 16, Compute, 6), add(0, 16, 19, Compute, 7), add(0, 19, 22, Compute, 8),
		}, 1},
		{"gap", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 6, Compute, 1), add(0, 7, 10, Compute, 2), add(0, 10, 13, Compute, 3),
		}, 2},
		{"unequal stride", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 6, Compute, 1), add(0, 6, 10, Compute, 2), add(0, 10, 14, Compute, 3), add(0, 14, 17, Compute, 4),
		}, 3},
		// A run of two 3-long iterations is 6 long, as long as the next
		// single iteration: stride is per iteration, not per record.
		{"next as long as the whole run", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 6, Compute, 1), add(0, 6, 12, Compute, 2),
		}, 2},
		{"repeated iter", []op{
			add(0, 0, 3, Compute, 4), add(0, 3, 6, Compute, 4), add(0, 6, 9, Compute, 5),
		}, 2},
		{"skipped iter", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 6, Compute, 2),
		}, 2},
		{"kind flip", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 6, Idle, 1), add(0, 6, 9, Idle, 2), add(0, 9, 12, Compute, 3),
		}, 3},
		{"ranks interleaved", []op{
			add(0, 0, 3, Compute, 0), add(1, 0, 5, Compute, 0), add(0, 3, 6, Compute, 1), add(2, 1, 2, Idle, 0),
			add(1, 5, 10, Compute, 1), add(0, 6, 9, Compute, 2), add(2, 2, 3, Idle, 1), add(1, 10, 15, Compute, 2),
		}, 3},
		{"rank -1 is never a run", []op{
			add(-1, 0, 3, Compute, 0), add(-1, 3, 6, Compute, 1), add(0, 0, 3, Compute, 0), add(-1, 6, 9, Compute, 2),
		}, 4},
		{"empty intervals dropped", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 3, Compute, 1), add(0, 5, 4, Compute, 1), add(0, 3, 6, Compute, 1),
		}, 1},
		// A span merged in directly becomes the rank's latest: the next
		// AddSpan continues it, not the older span AddSpan itself recorded.
		{"direct append, then continue it", []op{
			add(0, 0, 3, Compute, 0), add(0, 3, 6, Compute, 1),
			direct(Span{Rank: 0, Start: 6, End: 8, Kind: Compute, Iter: 2}), // N 0: a plain literal
			add(0, 8, 10, Compute, 3), add(0, 10, 12, Compute, 4),
		}, 2},
		{"direct append of a run and of another rank", []op{
			add(0, 0, 3, Compute, 0),
			direct(Span{Rank: 1, Start: 0, End: 12, Kind: Compute, Iter: 0, N: 4}),
			direct(Span{Rank: 0, Start: 3, End: 9, Kind: Compute, Iter: 1, N: 2}),
			add(1, 12, 15, Compute, 4), add(0, 9, 12, Compute, 3), add(0, 12, 16, Compute, 4),
		}, 4},
		{"direct append into an empty collector", []op{
			direct(Span{Rank: 2, Start: 0, End: 4, Kind: Idle, Iter: 9, N: 1}), add(2, 4, 8, Idle, 10),
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := checkLossless(t, tc.ops)
			if len(c.Spans) != tc.records {
				t.Errorf("%d records, want %d: %v", len(c.Spans), tc.records, c.Spans)
			}
		})
	}
}

// A collector whose Spans were cut back forgets the spans that went: the
// next AddSpan neither extends a dropped run nor indexes past the end.
func TestRunsAfterSpansCutBack(t *testing.T) {
	c := New()
	c.AddSpan(0, 0, 3, Compute, 0)
	c.AddSpan(1, 0, 3, Compute, 0)
	c.AddSpan(1, 3, 6, Compute, 1)
	c.Spans = c.Spans[:1]
	c.AddSpan(1, 6, 9, Compute, 2)
	c.AddSpan(0, 3, 6, Compute, 1)
	want := []Span{
		{Rank: 0, Start: 0, End: 6, Kind: Compute, Iter: 0, N: 2},
		{Rank: 1, Start: 6, End: 9, Kind: Compute, Iter: 2, N: 1},
	}
	if !reflect.DeepEqual(c.Spans, want) {
		t.Fatalf("spans = %v, want %v", c.Spans, want)
	}
}

func TestSpanItersAndAt(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		s := Span{Rank: 3, Start: 10, End: 14, Kind: Idle, Iter: 7, N: n}
		if s.Iters() != 1 {
			t.Errorf("N=%d: Iters() = %d, want 1", n, s.Iters())
		}
		if got, want := s.At(0), (Span{Rank: 3, Start: 10, End: 14, Kind: Idle, Iter: 7, N: 1}); got != want {
			t.Errorf("N=%d: At(0) = %v, want %v", n, got, want)
		}
	}
	run := Span{Rank: 1, Start: 100, End: 130, Kind: Compute, Iter: 40, N: 3}
	if run.Iters() != 3 {
		t.Fatalf("Iters() = %d, want 3", run.Iters())
	}
	if got, want := run.At(2), (Span{Rank: 1, Start: 120, End: 130, Kind: Compute, Iter: 42, N: 1}); got != want {
		t.Errorf("At(2) = %v, want %v", got, want)
	}
	var nilC *Collector
	if nilC.Iterations() != 0 {
		t.Error("nil collector reports iterations")
	}
}

// FuzzSpanRuns decodes the input into a recording history over ranks
// -1..3 — three bytes an op — biased towards what AddSpan merges: most
// ops start where the rank's previous one ended, carry the next iteration
// number and are 1–3 long; the rest leave a gap, repeat or skip an
// iteration number, flip the kind, or go in behind AddSpan's back as a
// literal or as a ready-made run.
func FuzzSpanRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 4, 1, 0, 8, 1, 0x10, 0, 1, 0x20, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0x40, 1, 0, 0, 1, 0, 0x80, 1, 0, 0, 4, 0, 0xc0, 4, 0, 0})
	long := make([]byte, 3000)
	for i := range long {
		long[i] = byte(i*37 + i/11)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		type cursor struct {
			end  des.Time
			iter int
			kind Kind
		}
		var at [5]cursor // indexed by rank+1
		var ops []op
		for ; len(data) >= 3; data = data[3:] {
			rank := int(data[0]%5) - 1
			cur := &at[rank+1]
			dur := des.Time(1 + data[1]%3)
			start := cur.end + des.Time(data[1]>>4&1) // gap
			iter := cur.iter + 1 - int(data[1]>>5&1)  // repeated
			iter += int(data[2] >> 2 & 1)             // skipped
			kind := cur.kind ^ Kind(data[2]>>3&1)     // flipped
			s := Span{Rank: rank, Start: start, End: start + dur, Kind: kind, Iter: iter}
			o := op{s: s}
			switch data[2] >> 6 {
			case 1: // literal appended directly, N left 0
				o.direct = true
			case 2: // a run appended directly
				o.direct = true
				o.s.N = 2 + int(data[2]&3)
				o.s.End = start + dur*des.Time(o.s.N)
			case 3: // an empty interval
				o.s.End = start
			}
			ops = append(ops, o)
			if o.s.End > o.s.Start {
				*cur = cursor{end: o.s.End, iter: iter + o.s.Iters() - 1, kind: kind}
			}
		}
		c := checkLossless(t, ops)
		for i, s := range c.Spans {
			if (s.End-s.Start)%des.Time(s.Iters()) != 0 {
				t.Fatalf("span %d %v: length is not a multiple of its %d iterations", i, s, s.Iters())
			}
		}
	})
}

// AddRun records exactly what its n AddSpan calls would: continuing the
// rank's latest run or starting a new one, in one call.
func TestAddRunEqualsAddSpans(t *testing.T) {
	play := func(run bool) *Collector {
		c := New()
		c.AddSpan(0, 0, 10, Compute, 0)
		c.AddSpan(1, 0, 7, Compute, 0)
		add := func(rank int, start, stride des.Time, iter, n int) {
			if run {
				c.AddRun(rank, start, stride, Compute, iter, n)
				return
			}
			for k := 0; k < n; k++ {
				c.AddSpan(rank, start+des.Time(k)*stride, start+des.Time(k+1)*stride, Compute, iter+k)
			}
		}
		add(0, 10, 10, 1, 5) // continues rank 0's run
		add(1, 7, 3, 1, 4)   // another stride: a new run
		add(0, 60, 10, 6, 1) // a run of one, continuing
		add(0, 75, 10, 7, 3) // a gap: a new run
		add(1, 19, 3, 5, 0)  // nothing
		return c
	}
	if got, want := play(true), play(false); !reflect.DeepEqual(got.Spans, want.Spans) {
		t.Fatalf("AddRun: %v\nAddSpan: %v", got.Spans, want.Spans)
	}
}
