package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"beltway/internal/gc"
	"beltway/internal/stats"
)

// TraceRun is one run's contribution to a Chrome trace: its event
// stream, displayed as one process (pid) named Name.
type TraceRun struct {
	Name   string // e.g. "Beltway 25.25.100 / gcbench @ 32MB"
	Pid    int
	Events []Event
}

// traceEvent is one entry of the Chrome trace_event format
// (catapult "JSON Array Format"; loads in chrome://tracing and Perfetto).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds (ph "X")
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// usec converts cost units to trace microseconds via the nominal clock
// rate (display scaling only; relative durations are exact).
func usec(costUnits float64) float64 {
	return costUnits / stats.CyclesPerSecond * 1e6
}

// WriteChromeTrace renders runs as a Chrome trace_event JSON object.
// Each collection becomes a complete ("X") slice named by its trigger,
// with the begin/end payloads in args; belt occupancy becomes counter
// ("C") series sampled after every collection; flips and OOMs become
// instant ("i") events.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error {
	var evs []traceEvent
	for _, run := range runs {
		evs = append(evs, traceEvent{
			Name: "process_name", Ph: "M", Pid: run.Pid, Tid: 0,
			Args: map[string]any{"name": run.Name},
		})
		evs = append(evs, runTraceEvents(run)...)
	}
	if evs == nil {
		evs = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
	})
}

func runTraceEvents(run TraceRun) []traceEvent {
	var out []traceEvent
	var begin *Event
	occ := map[string]any{}
	for i := range run.Events {
		e := run.Events[i]
		switch e.Kind {
		case EvGCBegin:
			begin = &run.Events[i]
		case EvGCEnd:
			args := map[string]any{
				"gc":             e.GC,
				"bytes_copied":   e.A,
				"objects":        e.B,
				"remset":         e.C,
				"barrier_slow":   e.D,
				"dur_cost_units": e.Dur,
			}
			name := "gc"
			if begin != nil && begin.GC == e.GC {
				name = gc.TriggerKind(begin.A).String()
				if begin.A>>8 != 0 {
					name += " (full)"
				}
				args["condemned_increments"] = begin.B
				args["condemned_bytes"] = begin.C
				args["occupied_bytes"] = begin.D
			}
			out = append(out, traceEvent{
				Name: name, Cat: "gc", Ph: "X",
				Ts: usec(e.Time - e.Dur), Dur: usec(e.Dur),
				Pid: run.Pid, Tid: 1, Args: args,
			})
			begin = nil
		case EvBelt:
			// Accumulate this collection's belt samples into one counter
			// event per belt so Perfetto draws stacked occupancy tracks.
			occ[fmt.Sprintf("belt%d", e.A)] = e.C
			last := i+1 >= len(run.Events) || run.Events[i+1].Kind != EvBelt
			if last {
				args := make(map[string]any, len(occ))
				for k, v := range occ {
					args[k] = v
				}
				out = append(out, traceEvent{
					Name: "belt occupancy (bytes)", Ph: "C",
					Ts: usec(e.Time), Pid: run.Pid, Tid: 0, Args: args,
				})
			}
		case EvFlip:
			out = append(out, traceEvent{
				Name: "belt flip", Cat: "gc", Ph: "i",
				Ts: usec(e.Time), Pid: run.Pid, Tid: 1,
				Args: map[string]any{"alloc_belt": e.A, "remset": e.B},
			})
		case EvOOM:
			out = append(out, traceEvent{
				Name: "OOM", Cat: "gc", Ph: "i",
				Ts: usec(e.Time), Pid: run.Pid, Tid: 1,
				Args: map[string]any{"requested": e.A, "heap_bytes": e.B},
			})
		case EvPolicy:
			belt := "global"
			if bb := uint8(e.A >> 8); bb != 0 {
				belt = fmt.Sprintf("belt%d", bb-1)
			}
			out = append(out, traceEvent{
				Name: "policy: " + policyKnobName(uint8(e.A)), Cat: "policy", Ph: "i",
				Ts: usec(e.Time), Pid: run.Pid, Tid: 1,
				Args: map[string]any{
					"reason": policyReasonName(uint8(e.A >> 24)),
					"belt":   belt,
					"value":  math.Float64frombits(e.B),
					"gc":     e.GC,
				},
			})
		case EvRequest:
			// Request slices go on their own track (tid 2) so GC pauses
			// (tid 1) visually overlay the requests they inflate.
			name := "read"
			if uint8(e.A) == 1 {
				name = "write"
			}
			args := map[string]any{
				"key":            e.B,
				"phase":          e.C,
				"dur_cost_units": e.Dur,
			}
			if e.A>>8 != 0 {
				args["gc_pause_cost"] = e.D
			}
			out = append(out, traceEvent{
				Name: name, Cat: "request", Ph: "X",
				Ts: usec(e.Time - e.Dur), Dur: usec(e.Dur),
				Pid: run.Pid, Tid: 2, Args: args,
			})
		}
	}
	return out
}
