package obs

// Chrome trace-event export. WriteChromeTrace renders a trace.Collector —
// the per-rank compute/idle spans and inter-processor messages the
// simulators record — as Chrome trace-event JSON (the "JSON Array
// Format"), which Perfetto and chrome://tracing load directly. This
// replaces squinting at the ASCII Gantt for large cells: a 120-rank
// chem trace opens as a zoomable timeline with one track per processor.
//
// Layout: a single process ("processors") holds one thread per rank,
// with one complete ("X") event per compute and idle span — a run of
// back-to-back equal iterations is one slice, args "iter" (its first) and
// "iters" (how many), so a rank that spun a million times behind ADSL is a
// few thousand slices and the file still opens. Messages
// are flow events ("s" at the send instant on the sender's track, "f"
// with bp:"e" at the receive instant on the receiver's track), which
// Perfetto draws as arrows between the rank tracks — the causal hops the
// critical-path analyzer walks, visible in the same timeline they cut
// across. Timestamps and durations are microseconds of virtual time, as
// the format requires.

import (
	"encoding/json"
	"fmt"
	"io"

	"aiac/internal/des"
	"aiac/internal/trace"
)

// traceEvent is one entry of the traceEvents array. Fields follow the
// Trace Event Format spec; Args carries the per-event detail Perfetto
// shows in the selection panel. ID pairs the two halves of a flow event,
// and BP ("binding point") set to "e" binds the finish half to the slice
// enclosing its timestamp rather than the next slice to start.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const pidProcessors = 0

func us(t des.Time) float64 { return float64(t) / 1e3 } // des.Time is ns

// WriteChromeTrace writes tc as Chrome trace-event JSON. The output is a
// single {"traceEvents": [...]} object; events appear in recording order,
// which viewers sort by timestamp themselves.
func WriteChromeTrace(w io.Writer, tc *trace.Collector) error {
	if tc == nil {
		return fmt.Errorf("obs: nil trace collector")
	}
	var events []traceEvent

	// Metadata: name the process and every thread, so Perfetto labels
	// tracks "P0", "P1", ... instead of bare tids.
	meta := func(pid, tid int, key, name string) {
		events = append(events, traceEvent{
			Name: key, Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	nRanks := 0
	for _, s := range tc.Spans {
		if s.Rank+1 > nRanks {
			nRanks = s.Rank + 1
		}
	}
	for _, m := range tc.Msgs {
		if m.From+1 > nRanks {
			nRanks = m.From + 1
		}
		if m.To+1 > nRanks {
			nRanks = m.To + 1
		}
	}
	meta(pidProcessors, 0, "process_name", "processors")
	for r := 0; r < nRanks; r++ {
		meta(pidProcessors, r, "thread_name", fmt.Sprintf("P%d", r))
	}

	for _, s := range tc.Spans {
		name := "compute"
		args := map[string]any{"iter": s.Iter}
		if n := s.Iters(); n > 1 {
			args["iters"] = n
		}
		if s.Kind == trace.Idle {
			name = "idle"
			args = nil
		}
		events = append(events, traceEvent{
			Name: name, Phase: "X",
			TsUS: us(s.Start), DurUS: us(s.End - s.Start),
			PID: pidProcessors, TID: s.Rank, Args: args,
		})
	}
	// Each message is one flow: the start half binds to the sender's
	// slice at the send instant, the finish half (bp:"e") to the
	// receiver's slice enclosing the arrival. Flow IDs start at 1 —
	// id 0 is omitted by omitempty and viewers treat the halves as
	// unpaired. Name and cat must match across the pair.
	for i, m := range tc.Msgs {
		name := m.Kind.String()
		events = append(events,
			traceEvent{
				Name: name, Cat: "msg", Phase: "s",
				TsUS: us(m.Sent), PID: pidProcessors, TID: m.From, ID: i + 1,
				Args: map[string]any{
					"to": m.To, "bytes": m.Bytes, "iter": m.Iter,
					"latency_ms": float64(m.Recv-m.Sent) / 1e6,
				},
			},
			traceEvent{
				Name: name, Cat: "msg", Phase: "f", BP: "e",
				TsUS: us(m.Recv), PID: pidProcessors, TID: m.To, ID: i + 1,
			},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
