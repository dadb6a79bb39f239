package des_test

// The recorded half of DES.md's validity column: op streams taken off real
// simulated cells — an asynchronous cell behind ADSL (few ranks, a shallow
// queue, millions of wake-ups at "now") and synchronous cells on the local
// and three-site grids (many ranks, a deep queue of in-flight deliveries) —
// replayed through every measured rung of the ladder against the frozen
// baseline.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/ladder"
	"aiac/internal/matrix"
	"aiac/internal/problems"
)

type recordedCell struct {
	env   string
	mode  aiac.Mode
	grid  string
	procs int
	n     int
	eps   float64 // looser than the sweeps' 1e-5: the op mix repeats long before then
}

func (c recordedCell) name() string {
	return fmt.Sprintf("%s/%s/%s/p%d/n%d", c.env, c.mode, c.grid, c.procs, c.n)
}

var recordedCells = []recordedCell{
	// A spinning rank costs a few events a run, so the async cell runs to
	// a tighter ε than the others to record more than 10 000 pushes.
	{"pm2", aiac.Async, "adsl", 4, 1200, 0.03},
	{"omniorb", aiac.Sync, "local", 16, 3200, 1e-4},
	{"mpi", aiac.Sync, "3site", 24, 4800, 1e-4},
}

// recordCell runs one repetition of the cell on the simulator, wired as
// matrix.runOnce wires it, and returns the simulator's queue workload.
func recordCell(c recordedCell) (des.OpStream, error) {
	lp := matrix.DefaultSpec().Linear
	prob := problems.NewLinear(c.n, lp.Diags, lp.Rho, lp.Seed)
	sim := des.New()
	stop := des.RecordOps(sim, c.name())
	grid, err := matrix.NewGrid(sim, c.grid, c.procs)
	if err != nil {
		return des.OpStream{}, err
	}
	grid.Net.SetJitter(0.02, lp.Seed)
	env, err := matrix.NewEnv(grid, c.env, true, nil)
	if err != nil {
		return des.OpStream{}, err
	}
	rpt := aiac.Run(grid, env, prob, aiac.Config{Mode: c.mode, Eps: c.eps, MaxIters: lp.MaxIters})
	if rpt.Reason != aiac.StopConverged {
		return des.OpStream{}, fmt.Errorf("%s did not converge: %v", c.name(), rpt.Reason)
	}
	return stop(), nil
}

// recordedStreams records the cells once per test binary.
var recordedStreams = sync.OnceValues(func() (streams []des.OpStream, err error) {
	for _, c := range recordedCells {
		s, err := recordCell(c)
		if err != nil {
			return nil, err
		}
		streams = append(streams, s)
	}
	return streams, nil
})

// TestRecordedStreamReplay: on the op streams of real cells every measured
// rung — the shipped queue among them — pops exactly the frozen baseline's
// (at, seq) order.
func TestRecordedStreamReplay(t *testing.T) {
	streams, err := recordedStreams()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		pushes, pops, ties := s.Counts()
		t.Logf("%s: %d pushes, %d pops, %d same-timestamp neighbours", s.Name(), pushes, pops, ties)
		if pushes < 10000 || pops < 10000 || ties == 0 {
			t.Errorf("%s is too thin to mean anything", s.Name())
		}
	}
	for name, why := range des.LadderValidity(streams) {
		t.Errorf("%s: %s", name, why)
	}
}

// desSpec is what TestLadderDES measures in DES.md: every measured rung's
// row, a replay column per recorded cell, and the list of those cells.
func desSpec() ladder.Spec {
	cols := []string{"valid", "ns/op @8", "ns/op @64", "ns/op @1024", "allocs/op", "speedup"}
	for _, c := range recordedCells {
		cols = append(cols, "replay "+c.name())
	}
	return ladder.Spec{Doc: "DES.md", Regions: []string{"cells"}, Tables: []ladder.Table{
		{Anchor: "| variant |", Key: []string{"variant"}, Rows: des.LadderVariants(), Cols: cols},
	}}
}

// TestLadderDES checks DES.md and, under LADDER_GATE=1 or LADDER_WRITE=1,
// measures it (recording three cells and timing three rungs at three
// depths takes ~15 s). Gates: every measured rung valid on the recorded and
// the random streams, and the shipped queue allocation-free and at least
// 1.3x the frozen baseline at depth 1024.
func TestLadderDES(t *testing.T) {
	doc := ladder.Open(t, desSpec())
	if !ladder.Gate(t) {
		return
	}
	recordedSet, err := recordedStreams()
	if err != nil {
		t.Fatal(err)
	}
	tab := doc.Table("| variant |")
	for _, r := range des.MeasureLadder(recordedSet) {
		tab.Setf(r.Name, "valid", "%d", ladder.Bit(r.Valid))
		for i, d := range []string{"8", "64", "1024"} {
			tab.Setf(r.Name, "ns/op @"+d, "%.1f", r.Ns[i])
		}
		tab.Setf(r.Name, "allocs/op", "%.2f", r.Allocs)
		tab.Setf(r.Name, "speedup", "%.3f", r.Speedup)
		for i, s := range recordedSet {
			tab.Setf(r.Name, "replay "+s.Name(), "%.1f", r.Replay[i])
		}
		if !r.Valid {
			t.Errorf("variant %s invalid: %s", r.Name, r.Why)
		}
		if r.Name != des.ShippedVariant {
			continue
		}
		if r.Allocs != 0 {
			t.Errorf("shipped queue allocates %.2f per pop+push; want 0", r.Allocs)
		}
		if r.Speedup < 1.3 {
			t.Errorf("shipped queue speedup %.3f < 1.3 over the frozen baseline at depth 1024", r.Speedup)
		}
	}
	var cells strings.Builder
	for _, s := range recordedSet {
		pushes, _, _ := s.Counts()
		fmt.Fprintf(&cells, "  - `%s` (%d events)\n", s.Name(), pushes)
	}
	doc.Region("cells", cells.String())
	doc.Finish()
}
