package aiac

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// overlapMinFlops is the stated Update cost from which a rank's Update
// runs on the solve's helper goroutine: below it, handing a step over
// costs more host time than overlapping it saves (OVERLAP.md).
const overlapMinFlops = 1 << 19

// fixedCost is a Problem that states an Update's flops before it runs, as
// an overlapped Update's CPU charge must be known at its issue.
type fixedCost interface {
	UpdateFlops(rank int, bounds []int) float64
}

// helperUpdates counts the Updates helpers ran, for the tests.
var helperUpdates atomic.Int64

// A helper is a solve's one goroutine stepping overlapped Updates, one at
// a time: a rank that issues an Update while it is busy runs it inline.
type helper struct {
	jobs   chan *Loop  // closed when the solve ends
	busy   atomic.Bool // set by the event loop's hand-over, cleared by the helper
	exited chan struct{}
}

// startHelper starts a helper for the ranks whose UpdateFlops reach
// overlapMinFlops: none (nil) on one core or if no rank qualifies.
func startHelper(prob Problem, bounds []int, loops []*Loop) *helper {
	fc, ok := prob.(fixedCost)
	if !ok || runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	var h *helper
	for r, l := range loops {
		if l.stated = fc.UpdateFlops(r, bounds); l.stated < overlapMinFlops {
			continue
		}
		if h == nil {
			h = &helper{jobs: make(chan *Loop, 1), exited: make(chan struct{})}
			// Every read of a rank's state joins its Update first, and
			// nothing the helper computes reaches the DES but through it.
			//lint:wallclock — joined before any read of the rank's state
			go h.run()
		}
		l.ov, l.done = h, make(chan any, 1)
	}
	return h
}

func (h *helper) run() {
	defer close(h.exited)
	for l := range h.jobs {
		// Unless the join claimed the Update first and ran it itself.
		if l.queued.CompareAndSwap(true, false) {
			v := l.step()
			helperUpdates.Add(1)
			h.busy.Store(false)
			l.done <- v
		} else {
			h.busy.Store(false)
		}
	}
}

// step runs the issued Update and returns its panic, for join to re-raise.
func (l *Loop) step() (panicked any) {
	defer func() { panicked = recover() }()
	l.fres, l.flops = l.prob.Update(l.rank, l.bounds, l.x)
	return nil
}

// issue hands an overlapped rank's Update to its helper, unless it is busy.
func (l *Loop) issue() bool {
	if !l.ov.busy.CompareAndSwap(false, true) {
		return false
	}
	l.pending = true
	l.queued.Store(true)
	l.ov.jobs <- l
	return true
}

// join waits for the issued Update, or runs it if the helper has not
// started it, and takes its result in; its flops must be those charged.
func (l *Loop) join() {
	if !l.pending {
		return
	}
	l.pending = false
	if l.queued.CompareAndSwap(true, false) {
		l.done <- l.step()
	}
	if v := <-l.done; v != nil {
		panic(v)
	}
	if l.flops != l.stated {
		panic(fmt.Sprintf("aiac: rank %d's Update returned %g flops, UpdateFlops stated %g", l.rank, l.flops, l.stated))
	}
	l.res, l.lastRes = l.fres, l.fres
}
