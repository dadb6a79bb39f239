package des

import (
	"math/rand"
	"slices"
	"testing"
)

// FIFO against a plain slice under a random mix of every operation,
// including long stretches where the queue never drains (the push-side
// compaction) and out-of-order inserts.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q FIFO[*int]
	var model []*int
	for step := 0; step < 40000; step++ {
		v := new(int)
		*v = step
		switch op := rng.Intn(20); {
		case op < 9:
			q.Push(v)
			model = append(model, v)
		case op < 17:
			if len(model) > 0 {
				if got := q.Pop(); got != model[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, *got, *model[0])
				}
				model = model[1:]
			}
		case op == 17:
			q.PushFront(v)
			model = slices.Insert(model, 0, v)
		default:
			i := rng.Intn(len(model) + 1)
			q.Insert(i, v)
			model = slices.Insert(model, i, v)
		}
		if q.Len() != len(model) || !slices.Equal(q.Items(), model) {
			t.Fatalf("step %d: queue %d elements, model %d", step, q.Len(), len(model))
		}
		if dead := q.items[:q.head]; slices.ContainsFunc(dead, func(p *int) bool { return p != nil }) {
			t.Fatalf("step %d: a popped slot still holds its pointer", step)
		}
	}
	// A queue that never drains must not grow without bound.
	var steady FIFO[int]
	for i := 0; i < 1<<20; i++ {
		steady.Push(i)
		if i >= 3 {
			steady.Pop()
		}
	}
	if c := cap(steady.items); c > 64 {
		t.Fatalf("a 3-deep queue holds %d slots after a million operations", c)
	}
}
