package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"aiac/internal/des"
	"aiac/internal/trace"
)

func TestWriteChromeTrace(t *testing.T) {
	tc := trace.New()
	ms := des.Time(1e6)
	tc.AddSpan(0, 0, 2*ms, trace.Compute, 1)
	tc.AddSpan(0, 2*ms, 3*ms, trace.Idle, 1)
	tc.AddSpan(1, 0, 3*ms, trace.Compute, 1)
	// Three back-to-back 2 ms iterations: one run, one slice.
	tc.AddSpan(1, 3*ms, 5*ms, trace.Compute, 2)
	tc.AddSpan(1, 5*ms, 7*ms, trace.Compute, 3)
	tc.AddSpan(1, 7*ms, 9*ms, trace.Compute, 4)
	tc.AddMsg(trace.Msg{From: 0, To: 1, Sent: 2 * ms, Recv: 5 * ms, Kind: trace.MsgData, Bytes: 64, Iter: 1})

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, tc); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TsUS  float64        `json:"ts"`
			DurUS float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			ID    int            `json:"id"`
			BP    string         `json:"bp"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	var compute, idle, starts, finishes, threadNames int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "M" && e.Name == "thread_name":
			threadNames++
		case e.Phase == "X" && e.Name == "compute":
			compute++
			if e.DurUS <= 0 {
				t.Errorf("compute event with dur %v", e.DurUS)
			}
			if e.TsUS == 3000 {
				if e.TID != 1 || e.DurUS != 6000 || e.Args["iter"] != float64(2) || e.Args["iters"] != float64(3) {
					t.Errorf("run slice = tid %d dur %v args %v, want tid 1, dur 6000, iter=2 iters=3", e.TID, e.DurUS, e.Args)
				}
			} else if _, ok := e.Args["iters"]; ok || e.Args["iter"] != float64(1) {
				t.Errorf("single-iteration slice args = %v, want iter=1 and no iters", e.Args)
			}
		case e.Phase == "X" && e.Name == "idle":
			idle++
		case e.Phase == "s":
			starts++
			if e.Name != "data" || e.Cat != "msg" {
				t.Errorf("flow start name/cat = %q/%q, want data/msg", e.Name, e.Cat)
			}
			if e.PID != pidProcessors || e.TID != 0 || e.TsUS != 2000 {
				t.Errorf("flow start pid/tid/ts = %d/%d/%v, want 0/0/2000", e.PID, e.TID, e.TsUS)
			}
			if e.ID == 0 {
				t.Error("flow start with zero id (omitted on the wire, halves won't pair)")
			}
			if e.Args["bytes"] != float64(64) || e.Args["iter"] != float64(1) {
				t.Errorf("flow start args = %v, want bytes=64 iter=1", e.Args)
			}
		case e.Phase == "f":
			finishes++
			if e.BP != "e" {
				t.Errorf("flow finish bp = %q, want e (bind to enclosing slice)", e.BP)
			}
			if e.PID != pidProcessors || e.TID != 1 || e.TsUS != 5000 {
				t.Errorf("flow finish pid/tid/ts = %d/%d/%v, want 0/1/5000", e.PID, e.TID, e.TsUS)
			}
		case e.Phase == "X":
			t.Errorf("unexpected X event %q on pid %d (messages must be flow events)", e.Name, e.PID)
		}
	}
	if compute != 3 || idle != 1 || starts != 1 || finishes != 1 {
		t.Errorf("events: compute=%d idle=%d flow starts=%d finishes=%d, want 3/1/1/1",
			compute, idle, starts, finishes)
	}
	if threadNames < 2 {
		t.Errorf("thread_name metadata events = %d, want >= 2", threadNames)
	}
}

// TestWriteChromeTraceFlowIDs checks every message gets a distinct flow id
// and both halves of each pair share it — Perfetto pairs s/f by
// (cat, name, id), so a collision draws wrong arrows.
func TestWriteChromeTraceFlowIDs(t *testing.T) {
	tc := trace.New()
	ms := des.Time(1e6)
	tc.AddSpan(0, 0, 10*ms, trace.Compute, 1)
	tc.AddSpan(1, 0, 10*ms, trace.Compute, 1)
	tc.AddMsg(trace.Msg{From: 0, To: 1, Sent: 1 * ms, Recv: 2 * ms, Kind: trace.MsgData})
	tc.AddMsg(trace.Msg{From: 1, To: 0, Sent: 3 * ms, Recv: 4 * ms, Kind: trace.MsgData})
	tc.AddMsg(trace.Msg{From: 0, To: 1, Sent: 5 * ms, Recv: 6 * ms, Kind: trace.MsgStop})

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, tc); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			ID    int    `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	startIDs := map[int]int{}
	finishIDs := map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "s":
			startIDs[e.ID]++
		case "f":
			finishIDs[e.ID]++
		}
	}
	if len(startIDs) != 3 || len(finishIDs) != 3 {
		t.Fatalf("distinct flow ids: starts=%d finishes=%d, want 3/3", len(startIDs), len(finishIDs))
	}
	for id, n := range startIDs {
		if n != 1 || finishIDs[id] != 1 {
			t.Errorf("flow id %d: %d starts, %d finishes, want 1/1", id, n, finishIDs[id])
		}
	}
}

func TestWriteChromeTraceNil(t *testing.T) {
	if err := WriteChromeTrace(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("want error for nil collector")
	}
}
