package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// periodic is a process that runs back-to-back periods of length d the way
// a per-iteration owner does — each period's completion is an event
// enqueued when the period begins, and the completion resumes the process,
// which begins the next period — or, with lazy set, the way a spinning
// owner does: it parks on a Spin and, when woken, folds the ended periods
// in and turns the one in progress back into a real completion
// (ScheduleEnd). Whoever fires next sees the same counts either way.
type periodic struct {
	s       *Simulator
	p       *Proc
	d       Time
	lazy    bool
	until   Time // no period begins at or after until
	sp      Spin
	ended   int // completions fired
	resumed int // periods whose completion the process has run after
	begin   func()
	wakes   int // how often a spin was folded
}

// Fire is the completion of the period in progress.
func (o *periodic) Fire(uint64) {
	o.ended++
	o.p.Unpark()
}

func (o *periodic) start(s *Simulator) {
	o.s = s
	o.begin = func() {
		if s.Now() >= o.until {
			return
		}
		if o.lazy {
			// The deadline: the first boundary at or after until.
			o.sp.Start(s, o.d, int64((o.until-s.Now()+o.d-1)/o.d), o.wake)
		} else {
			s.AfterHandler(o.d, o, 0)
		}
		o.p.ParkK(func() {
			o.resumed++
			o.begin()
		})
	}
	o.p = s.SpawnTask("periodic", func(*Proc) { o.begin() })
}

// wake folds a running spin in; anything that looks at the process calls
// it first.
func (o *periodic) wake() {
	if !o.sp.Running() {
		return
	}
	o.wakes++
	_, _, periods := o.sp.Lattice()
	n := int(periods)
	o.ended += n
	o.resumed += n
	o.sp.ScheduleEnd(o, 0)
	o.sp.Stop()
}

// spinSchedule plays one random schedule of outside events against a
// periodic process and returns what each event saw: the instant, and the
// process's ended and resumed counts. Outside events are placed on and
// between period boundaries, scheduled from instants on and between
// boundaries, and some schedule a follow-up at their own instant.
func spinSchedule(seed int64, lazy bool) ([]string, *periodic) {
	const d = 10
	rng := rand.New(rand.NewSource(seed))
	s := New()
	o := &periodic{d: d, lazy: lazy, until: 400}
	var seen []string
	look := func(name string) {
		o.wake()
		seen = append(seen, fmt.Sprintf("%s@%d:%d/%d", name, s.Now(), o.ended, o.resumed))
	}
	pick := func(lo int) Time {
		at := Time(lo + rng.Intn(30))
		if rng.Intn(2) == 0 {
			at = at / d * d // a boundary
		}
		return at
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("x%d", i)
		from := pick(rng.Intn(300))
		gap := Time(rng.Intn(3)) * d
		if rng.Intn(3) == 0 {
			gap += Time(rng.Intn(d))
		}
		follow := rng.Intn(3) == 0
		s.Schedule(from, func() {
			s.After(gap, func() {
				look(name)
				if follow {
					s.Schedule(s.Now(), func() { look(name + "'") })
				}
			})
		})
	}
	if rng.Intn(2) == 0 {
		s.Schedule(0, func() { o.start(s) })
	} else {
		o.start(s)
	}
	s.Schedule(500, func() { look("end") })
	s.Run()
	return seen, o
}

// TestSpinMatchesPerPeriod: whatever reaches a spinning process and
// whenever — strictly inside a period, exactly on a boundary, scheduled
// before, at, or after the instant the period began, directly or through a
// same-instant follow-up — it sees exactly what it would see of the
// process that enqueues a completion every period. The spin's own
// deadline and exact boundaries are among the wake-ups.
func TestSpinMatchesPerPeriod(t *testing.T) {
	folded := 0
	for seed := int64(0); seed < 300; seed++ {
		want, _ := spinSchedule(seed, false)
		got, o := spinSchedule(seed, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\n spin        %v\n per-period  %v", seed, got, want)
		}
		folded += o.wakes
	}
	if folded < 300 {
		t.Fatalf("only %d spins folded over 300 schedules: the test no longer exercises spinning", folded)
	}
}

// Marks taken between the same two ordinary events keep the order they
// were taken in: two spins started at one instant with one period resume
// their completions in start order, wherever their wake-ups come from.
func TestSpinMarksKeepStartOrder(t *testing.T) {
	s := New()
	var order []string
	var a, b Spin
	done := func(name string) Handler {
		return funcEvent(func() { order = append(order, name) })
	}
	s.Schedule(5, func() {
		a.Start(s, 10, 100, func() { t.Fatal("a entered a boundary") })
		b.Start(s, 10, 100, func() { t.Fatal("b entered a boundary") })
	})
	s.Schedule(12, func() {
		// Resume b first: its completion must still follow a's.
		b.ScheduleEnd(done("b"), 0)
		b.Stop()
		a.ScheduleEnd(done("a"), 0)
		a.Stop()
	})
	s.Run()
	if want := []string{"a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("completions ran %v, want %v", order, want)
	}
}

// The clock enters a spin's deadline even with nothing else pending, and a
// spin's owner that does not stop there is a bug the simulator reports.
func TestSpinDeadlineIsEntered(t *testing.T) {
	s := New()
	var sp Spin
	var at Time
	var periods int64
	sp.Start(s, 7, 3, func() {
		at = s.Now()
		_, _, periods = sp.Lattice()
		sp.Stop()
	})
	if end := s.Run(); end != 21 || at != 21 || periods != 2 {
		t.Fatalf("deadline handled at %v after %d periods, run ended at %v; want 21, 2, 21", at, periods, end)
	}

	s = New()
	var lazy Spin
	lazy.Start(s, 7, 3, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("an owner that ignores its boundary went unnoticed")
		}
	}()
	s.Run()
}
