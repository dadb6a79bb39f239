package critpath_test

// MSGPATH.md: the ladder of the simulated message path. Every rung keeps
// every event and its (at, seq) order and makes the events cheaper; the
// rungs below the last are recorded rows of the doc alone, and the last,
// the shipped path, is validated anew on every run: here by the reference
// cells, in internal/env/envcore and internal/marcel by what one message
// and one CPU charge allocate and cost.

import (
	"fmt"
	"strings"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/golden"
	"aiac/internal/ladder"
)

const msgPathShipped = "recycled handlers, wires and messages"

var msgPathSpec = ladder.Spec{Doc: "MSGPATH.md", Regions: []string{"cells"}, Tables: []ladder.Table{{
	Anchor: "| rung |", Key: []string{"rung"}, Rows: []string{msgPathShipped}, Cols: []string{"valid", "des.events"},
}}}

// TestLadderMsgPath: the shipped path reproduces every reference cell's
// recorded row in testdata/msgpath_cells.jsonl — its fingerprint, frozen at
// the parent of the change that built the ladder (a path that reproduces it
// delivers the same messages at the same virtual times and attributes the
// same critical path), and its event count: the ladder kept every event, so
// the sync cell's is frozen with it; the async cells' are lazy spin's
// (SPIN.md), which did not move their fingerprints. Re-record, on purpose
// only, with GOLDEN_WRITE=1 go test -run TestLadderMsgPath
// ./internal/obs/critpath. The check always runs (about a second).
func TestLadderMsgPath(t *testing.T) {
	doc := ladder.Open(t, msgPathSpec)
	runs, err := refRuns()
	if err != nil {
		t.Fatal(err)
	}
	checkMsgPathCells(t, runs)
	var cells strings.Builder
	var syncEvents uint64
	for i, run := range runs {
		fmt.Fprintf(&cells, "- `%s`: %d events, fingerprint `%s`\n", cellName(refCells[i]), run.events, run.fingerprint)
		if refCells[i].Mode == aiac.Sync {
			syncEvents = run.events
		}
	}
	if !ladder.Gate(t) {
		return
	}
	tab := doc.Table("| rung |")
	tab.Setf(msgPathShipped, "valid", "%d", ladder.Bit(!t.Failed()))
	tab.Setf(msgPathShipped, "des.events", "%d", syncEvents)
	doc.Region("cells", cells.String())
	doc.Finish()
}

// checkMsgPathCells holds the reference runs to their recorded rows.
func checkMsgPathCells(t *testing.T, runs []refRun) {
	var rows []golden.Row
	for i, run := range runs {
		rows = append(rows, golden.Row{Key: cellName(refCells[i]), Fields: []golden.Field{
			{Name: "events", Value: run.events}, {Name: "fingerprint", Value: run.fingerprint},
		}})
	}
	golden.Check(t, "testdata/msgpath_cells.jsonl", rows)
}
