package check

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/trace"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// OracleFrameBytes is the frame size the script oracle simulates with.
// 4 KiB keeps increments spanning several frames at oracle heap sizes.
const OracleFrameBytes = 4096

// Outcome is one configuration's replay result. Only OOM, Err, Serials
// and Fingerprint participate in equivalence; Collections is reported
// for context but is pure policy (configs legitimately differ).
type Outcome struct {
	Name        string
	OOM         bool   // replay ended in out-of-memory
	Err         string // validator failure, handle drift, config error, or panic
	Serials     []uint32
	Fingerprint string // final live-graph rendering; "" when OOM or Err
	Collections uint64
}

// Divergence is one oracle finding: either a single configuration
// failing against its own shadow graph (B empty), or a pair of
// configurations disagreeing on mutator-observable state.
type Divergence struct {
	A, B   string
	Field  string // "replay", "oom", "serials", "graph"; sharded also "routed", "makespan"
	Detail string
}

func (d Divergence) String() string {
	if d.B == "" {
		return fmt.Sprintf("[%s] %s: %s", d.Field, d.A, d.Detail)
	}
	return fmt.Sprintf("[%s] %s vs %s: %s", d.Field, d.A, d.B, d.Detail)
}

// Report is the oracle's verdict over one trace and a configuration set.
type Report struct {
	Outcomes    []Outcome
	Divergences []Divergence
}

// Failed reports whether the oracle found any divergence.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

// String renders the divergence list, one per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Divergences {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// serialTap records the allocation-serial stream of a replay: the serial
// the collector assigned to each successive allocation. Serials are
// assigned in mutator-operation order, so the stream must be identical
// across every configuration replaying the same trace.
type serialTap struct {
	m       *vm.Mutator
	serials []uint32
}

func (t *serialTap) note(h gc.Handle) { t.serials = append(t.serials, t.m.Serial(h)) }

func (t *serialTap) Alloc(_ *heap.TypeDesc, _ int, h gc.Handle, _, _ bool) { t.note(h) }
func (t *serialTap) AllocPretenured(_ *heap.TypeDesc, _ int, h gc.Handle, _ bool) {
	t.note(h)
}
func (t *serialTap) SetRef(_ gc.Handle, _ int, _ gc.Handle) {}
func (t *serialTap) GetRef(_ gc.Handle, _ int, _ gc.Handle) {}
func (t *serialTap) RefIsNil(gc.Handle, int)                {}
func (t *serialTap) Release(gc.Handle)                      {}
func (t *serialTap) Push()                                  {}
func (t *serialTap) Pop()                                   {}
func (t *serialTap) SetData(gc.Handle, int, uint32)         {}
func (t *serialTap) GetData(gc.Handle, int)                 {}
func (t *serialTap) Work(int)                               {}
func (t *serialTap) Collect(bool)                           {}
func (t *serialTap) Keep(_, _ gc.Handle)                    {}

// invariantFailure is what a failed post-collection invariant check
// panics with; like a validator violation it ends the run, and the
// recovering caller reports it as the run's error.
type invariantFailure struct{ err error }

func (f invariantFailure) String() string { return "invariants: " + f.err.Error() }

// watchInvariants ends every collection of h with core.CheckInvariants —
// frame and increment bookkeeping, no forwarded header left behind, and
// the remembered-set (or dirty-card) invariant over every slot in the
// heap — after whatever hooks h already carries. The shadow validator
// sees the heap as the mutator does; this sees what the NEXT collection
// will rely on, so a kernel bug that leaves the graph right and the
// remsets wrong is caught at the collection that made it, under every
// preset, instead of when it first costs an object.
func watchInvariants(h *core.Heap) {
	h.SetHooks(h.Hooks().Merge(gc.Hooks{PostGC: func() {
		if err := h.CheckInvariants(); err != nil {
			panic(invariantFailure{err})
		}
	}}))
}

// replayOne replays the trace on one configuration under the shadow
// validator and the invariant checker, converting every failure mode —
// OOM, handle drift, validator or invariant violation, collector panic —
// into an Outcome.
func replayOne(tr *trace.Trace, cfg core.Config) (out Outcome) {
	out.Name = cfg.Name
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	h, err := core.New(cfg, heap.NewRegistry())
	if err != nil {
		out.Err = "config: " + err.Error()
		return out
	}
	m := vm.New(h)
	v := m.EnableValidation()
	watchInvariants(h)
	tap := &serialTap{m: m}
	m.SetRecorder(tap)
	err = trace.Replay(tr, m)
	out.Serials = tap.serials
	out.Collections = h.Collections()
	if err != nil {
		if errors.Is(err, gc.ErrOutOfMemory) {
			out.OOM = true
			return out
		}
		out.Err = err.Error()
		return out
	}
	// A final explicit check: the last mutation may have happened after
	// the last collection, and the fingerprint below must describe a
	// verified heap.
	if cerr := v.Check(); cerr != nil {
		out.Err = "validator: " + cerr.Error()
		return out
	}
	out.Fingerprint = v.LiveFingerprint()
	return out
}

// Differential replays tr through every configuration and asserts
// pairwise equivalence of mutator-observable results:
//
//   - every replay must pass its own shadow-graph validation;
//   - OOM verdicts must agree (the oracle's heap-sizing policy makes
//     completion configuration-independent; see HeapBytesFor);
//   - allocation-serial streams must be identical — prefix-identical
//     when a run ended in OOM, since it stops mid-trace;
//   - final live-graph fingerprints must be identical (only compared
//     between runs that completed).
//
// Collections, pauses, cost, copied bytes, remset traffic and telemetry
// are policy, not semantics, and are excluded from equivalence.
func Differential(tr *trace.Trace, cfgs []core.Config) Report {
	var rep Report
	for _, cfg := range cfgs {
		rep.Outcomes = append(rep.Outcomes, replayOne(tr, cfg))
	}
	ref := -1
	for i, o := range rep.Outcomes {
		if o.Err != "" {
			rep.Divergences = append(rep.Divergences,
				Divergence{A: o.Name, Field: "replay", Detail: o.Err})
			continue
		}
		if ref < 0 {
			ref = i
		}
	}
	if ref < 0 {
		return rep // every replay failed; each failure already reported
	}
	a := rep.Outcomes[ref]
	for i, b := range rep.Outcomes {
		if i == ref || b.Err != "" {
			continue
		}
		if a.OOM != b.OOM {
			rep.Divergences = append(rep.Divergences, Divergence{
				A: a.Name, B: b.Name, Field: "oom",
				Detail: fmt.Sprintf("OOM=%v vs OOM=%v", a.OOM, b.OOM)})
		}
		if d := diffSerials(a, b); d != "" {
			rep.Divergences = append(rep.Divergences,
				Divergence{A: a.Name, B: b.Name, Field: "serials", Detail: d})
		}
		if !a.OOM && !b.OOM && a.Fingerprint != b.Fingerprint {
			rep.Divergences = append(rep.Divergences, Divergence{
				A: a.Name, B: b.Name, Field: "graph",
				Detail: diffLines(a.Fingerprint, b.Fingerprint)})
		}
	}
	return rep
}

// diffSerials compares two allocation-serial streams. A stream from an
// OOM'd run may be a proper prefix of the other; otherwise the streams
// must match exactly.
func diffSerials(a, b Outcome) string {
	n := min(len(a.Serials), len(b.Serials))
	for i := 0; i < n; i++ {
		if a.Serials[i] != b.Serials[i] {
			return fmt.Sprintf("allocation %d: serial %d vs %d", i, a.Serials[i], b.Serials[i])
		}
	}
	if len(a.Serials) != len(b.Serials) {
		short := a
		if len(b.Serials) < len(a.Serials) {
			short = b
		}
		if !short.OOM {
			return fmt.Sprintf("stream lengths %d vs %d with no OOM to explain the shorter",
				len(a.Serials), len(b.Serials))
		}
	}
	return ""
}

// diffLines reports the first line where two fingerprints differ.
func diffLines(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := min(len(la), len(lb))
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(la), len(lb))
}

// HeapBytesFor is the oracle's heap-sizing policy for scripts: at least
// three times the script's total allocation volume plus slack, rounded
// to frames. At that size every configuration completes — even an
// incomplete collector that never reclaims cyclic garbage, and even a
// classical collector reserving half the heap — so an OOM verdict is a
// bug, not policy, and verdicts are comparable across configurations.
func HeapBytesFor(s Script, frameBytes int) int {
	hb := 3*s.AllocBytes() + 64*frameBytes
	return (hb + frameBytes - 1) / frameBytes * frameBytes
}

// ScriptRun is the oracle result for one script: the recorded trace, the
// concrete (heap-sized) configurations, and the differential report.
type ScriptRun struct {
	Report
	Trace     *trace.Trace
	HeapBytes int
	Configs   []core.Config
	// RecordErr notes a failure while recording the reference trace
	// (an OOM prefix is not an error; a panic is).
	RecordErr string
}

// RunScript sizes every configuration by the oracle's heap policy,
// records the script's trace on the first configuration, and replays it
// differentially through all of them.
func RunScript(script Script, cfgs []core.Config) ScriptRun {
	heapBytes := HeapBytesFor(script, OracleFrameBytes)
	sized := make([]core.Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.HeapBytes = heapBytes
		cfg.FrameBytes = OracleFrameBytes
		cfg.PhysMemBytes = 0 // paging is a cost-model concern, not semantics
		sized[i] = cfg
	}
	return RunScriptConfigured(script, sized)
}

// RunScriptConfigured is RunScript with the configurations used exactly
// as given (heap and frame sizes included) — the form fixtures replay,
// so a committed reproducer reruns bit-identically.
func RunScriptConfigured(script Script, cfgs []core.Config) ScriptRun {
	run := ScriptRun{Configs: cfgs}
	if len(cfgs) == 0 {
		run.RecordErr = "no configurations"
		return run
	}
	run.HeapBytes = cfgs[0].HeapBytes
	run.Trace, run.RecordErr = recordScript(script, cfgs[0])
	if run.Trace == nil {
		run.Divergences = append(run.Divergences,
			Divergence{A: cfgs[0].Name, Field: "replay", Detail: "record: " + run.RecordErr})
		return run
	}
	run.Report = Differential(run.Trace, cfgs)
	if run.RecordErr != "" {
		// A panic while recording is a collector bug even if every
		// replay of the surviving prefix agrees.
		run.Divergences = append(run.Divergences,
			Divergence{A: cfgs[0].Name, Field: "replay", Detail: "record: " + run.RecordErr})
	}
	return run
}

// recordScript executes the script once on the reference configuration
// with a trace recorder attached. An OOM yields the trace prefix of the
// operations that succeeded (replays then compare that prefix); a panic
// is reported and yields whatever prefix was recorded.
func recordScript(script Script, cfg core.Config) (tr *trace.Trace, errStr string) {
	tr = trace.NewTrace()
	defer func() {
		if r := recover(); r != nil {
			errStr = fmt.Sprintf("panic: %v", r)
		}
	}()
	h, err := core.New(cfg, heap.NewRegistry())
	if err != nil {
		return nil, "config: " + err.Error()
	}
	m := vm.New(h)
	watchInvariants(h)
	m.SetRecorder(tr)
	_ = m.Run(func() { Execute(script, m) }) // OOM truncates the trace; fine
	return tr, ""
}

// RecordWorkload records one bundled benchmark's mutator event stream at
// the given scale on a reference collector, exactly as cmd/tracebench
// does: the trace is then collector-independent input for Differential.
func RecordWorkload(b *workload.Benchmark, scale float64, seed int64, cfg core.Config) (*trace.Trace, error) {
	h, err := core.New(cfg, heap.NewRegistry())
	if err != nil {
		return nil, err
	}
	tr := trace.NewTrace()
	m := vm.New(h)
	m.SetRecorder(tr)
	ctx := &workload.Ctx{M: m, Types: h.Space().Types,
		Rng: rand.New(rand.NewSource(seed)), Scale: scale}
	if err := m.Run(func() { b.Body(ctx) }); err != nil {
		return nil, fmt.Errorf("check: recording %s: %w", b.Name, err)
	}
	return tr, nil
}
