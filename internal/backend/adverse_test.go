package backend

// Tests of the native convergence protocol under adverse scheduling and
// adverse networks: a starved scheduler (GOMAXPROCS=1), receive threads
// lagging far behind the iterate loops, message loss stalling the
// synchronous lockstep, and the wall-clock guards that keep all of the
// above from hanging a sweep.

import (
	"runtime"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/la"
	"aiac/internal/problems"
	"aiac/internal/transport"
)

// With GOMAXPROCS=1 every rank, sender, receive thread, and the
// coordinator multiplex one OS thread — the paper's user-level thread
// packages. The cooperative yield in the iterate loop must keep the
// protocol live and correct.
func TestGOMAXPROCS1Fairness(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	both(t, 6, func(t *testing.T, tr transport.Transport) {
		prob := problems.NewLinear(3000, 10, 0.7, 6)
		rep, err := Run(prob, tr, Config{Mode: aiac.Async, Eps: 1e-9, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged() {
			t.Fatalf("did not converge on one thread: %s", rep.Reason)
		}
		if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-5 {
			t.Fatalf("solution error %v", d)
		}
	})
}

// A rank whose inbound links are slow receives data long after its
// neighbours computed it — its receive threads lag behind every iterate
// loop. The two-phase confirmation must hold the stop back until the
// laggard has genuinely converged on fresh data, so the assembled solution
// is still correct.
func TestLaggingReceiverStaysCorrect(t *testing.T) {
	both(t, 4, func(t *testing.T, tr transport.Transport) {
		for from := 0; from < 4; from++ {
			if from != 1 {
				tr.SetShaping(from, 1, transport.Shaping{Delay: 10 * time.Millisecond})
			}
		}
		prob := problems.NewLinear(3000, 10, 0.7, 7)
		rep, err := Run(prob, tr, Config{Mode: aiac.Async, Eps: 1e-9, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged() {
			t.Fatalf("did not converge with a lagging receiver: %s", rep.Reason)
		}
		if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-5 {
			t.Fatalf("solution error %v with a lagging receiver", d)
		}
	})
}

// Loss shaping drops data messages; the asynchronous iterations absorb
// that (later sends carry fresher values), while the synchronous lockstep
// deadlocks and must be caught by the stall guard, not hang.
func TestAsyncSurvivesLossSyncStalls(t *testing.T) {
	both(t, 3, func(t *testing.T, tr transport.Transport) {
		shapeAll(tr, transport.Shaping{Loss: 0.3, Seed: 11})
		prob := problems.NewLinear(2000, 8, 0.7, 8)
		rep, err := Run(prob, tr, Config{Mode: aiac.Async, Eps: 1e-9, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged() {
			t.Fatalf("async did not absorb 30%% loss: %s", rep.Reason)
		}
		if rep.Net.Dropped == 0 {
			t.Fatal("loss shaping dropped nothing")
		}
		if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-5 {
			t.Fatalf("solution error %v under loss", d)
		}
	})
	both(t, 3, func(t *testing.T, tr transport.Transport) {
		shapeAll(tr, transport.Shaping{Loss: 0.3, Seed: 11})
		prob := problems.NewLinear(2000, 8, 0.7, 8)
		rep, err := Run(prob, tr, Config{
			Mode: aiac.Sync, Eps: 1e-9,
			StallAfter: 300 * time.Millisecond, Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Reason != aiac.StopStalled {
			t.Fatalf("lossy sync ended %s, want %s", rep.Reason, aiac.StopStalled)
		}
	})
}

// The hard timeout must cancel a runaway solve and report it stalled.
func TestTimeoutReportsStall(t *testing.T) {
	prob := problems.NewLinear(2000, 8, 0.9, 9)
	start := time.Now()
	rep, err := Run(prob, transport.NewChan(3), Config{
		Mode: aiac.Async, Eps: 1e-300, // unreachable
		Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != aiac.StopStalled {
		t.Fatalf("timed-out run ended %s, want %s", rep.Reason, aiac.StopStalled)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("timeout took %v to take effect", waited)
	}
}

// shapeAll applies s to every link of tr.
func shapeAll(tr transport.Transport, s transport.Shaping) {
	for i := 0; i < tr.Size(); i++ {
		for j := 0; j < tr.Size(); j++ {
			tr.SetShaping(i, j, s)
		}
	}
}
