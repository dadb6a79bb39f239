package main

import "time"

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its own calls into the layer's public functions. Parent is the ID
// of the span that was open when this one began (0 for a root); all spans
// of one staged cell share Cell.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Cell   string  `json:"cell"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine: the staged cell's driver. A nil recorder records nothing, so
// the staging code runs unchanged with the benchmark's own spans off.
type recorder struct {
	epoch time.Time
	cell  string
	spans []span
	open  []int // stack of open span IDs
}

func newRecorder(cell string) *recorder {
	return &recorder{epoch: time.Now(), cell: cell}
}

// do runs f inside a span named name.
func (r *recorder) do(name string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Cell: r.cell, Name: name})
	r.open = append(r.open, id)
	start := time.Since(r.epoch)
	f()
	end := time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
	r.spans[id-1].StartS, r.spans[id-1].EndS = start.Seconds(), end.Seconds()
}

// total sums the durations of every span named name.
func (r *recorder) total(name string) float64 {
	var t float64
	for _, s := range r.spans {
		if s.Name == name {
			t += s.EndS - s.StartS
		}
	}
	return t
}

// self is a layer's own time: its spans' durations minus the part their
// direct children cover.
func (r *recorder) self(name string) float64 {
	t := r.total(name)
	for _, c := range r.spans {
		if c.Parent != 0 && r.spans[c.Parent-1].Name == name {
			t -= c.EndS - c.StartS
		}
	}
	return t
}
