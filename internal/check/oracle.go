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
	Field  string // "replay", "oom", "serials", "graph"; sharded also "makespan"
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

// A drive is what a participant does with its mutator, and how that ended:
// nil, out of memory, or a failure of the drive itself (handle drift).
// The oracle keeps two on purpose. replay is record-once-replay-N, the
// only place trace.Replay's handle-drift check meets random scripts.
// execute runs the script itself, so an OOM yields the serial stream
// actually produced, not a truncated trace: what the cyclic fixture
// needs. A drive may first attach what it needs: recording swaps a trace
// recorder in for the serial tap, a test merges its gc.Hooks into the
// heap's.
type drive func(*vm.Mutator) error

func replay(tr *trace.Trace) drive {
	return func(m *vm.Mutator) error { return trace.Replay(tr, m) }
}

func execute(s Script) drive {
	return func(m *vm.Mutator) error { return m.Run(func() { Execute(s, m) }) }
}

// recording is d with its operations recorded into tr. An OOM leaves the
// prefix of the operations that succeeded, and so does a panic.
func recording(tr *trace.Trace, d drive) drive {
	return func(m *vm.Mutator) error {
		m.SetRecorder(tr)
		return d(m)
	}
}

// run is how every participant is run: a fresh heap of cfg under the
// shadow validator, the invariant checker and the serial tap, driven by
// d, with every failure mode — OOM, handle drift, validator or invariant
// violation, collector panic — converted into an Outcome.
func run(cfg core.Config, d drive) (out Outcome) {
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
	err = d(m)
	out.Serials = tap.serials
	out.Collections = h.Collections()
	out.classify(err, v)
	return out
}

// classify turns how a drive ended into the outcome's verdict: OOM, Err,
// or the fingerprint of a heap checked one last time — the last mutation
// may have happened after the last collection, and the fingerprint must
// describe a verified heap.
func (o *Outcome) classify(err error, v *vm.Validator) {
	switch {
	case errors.Is(err, gc.ErrOutOfMemory):
		o.OOM = true
	case err != nil:
		o.Err = err.Error()
	default:
		if cerr := v.Check(); cerr != nil {
			o.Err = "validator: " + cerr.Error()
			return
		}
		o.Fingerprint = v.LiveFingerprint()
	}
}

// compare is the oracle's one rule for when two outcomes of the same
// subject disagree. A side that failed against its own shadow graph is
// reported as that and nothing more is compared. Otherwise OOM verdicts
// must agree (the sizing policy makes completion configuration-
// independent; see HeapBytesFor); allocation-serial streams must be
// identical — prefix-identical when a run ended in OOM, since it stops
// mid-subject; and final live-graph fingerprints must be identical between
// runs that completed. oomWords is the battery's wording of an OOM
// mismatch, with a verb for each side's verdict.
//
// Collections, pauses, cost, copied bytes, remset traffic and telemetry
// are policy, not semantics, and are excluded from equivalence.
func compare(a, b Outcome, oomWords string) []Divergence {
	var divs []Divergence
	for _, o := range []Outcome{a, b} {
		if o.Err != "" {
			divs = append(divs, Divergence{A: o.Name, Field: "replay", Detail: o.Err})
		}
	}
	if len(divs) > 0 {
		return divs
	}
	add := func(field, detail string) {
		divs = append(divs, Divergence{A: a.Name, B: b.Name, Field: field, Detail: detail})
	}
	if a.OOM != b.OOM {
		add("oom", fmt.Sprintf(oomWords, a.OOM, b.OOM))
	}
	if d := diffSerials(a, b); d != "" {
		add("serials", d)
	}
	if !a.OOM && !b.OOM && a.Fingerprint != b.Fingerprint {
		add("graph", diffLines(a.Fingerprint, b.Fingerprint))
	}
	return divs
}

// Differential replays tr through every configuration and holds them to
// each other: every replay must pass its own shadow-graph validation, and
// the first that does is the reference every other is compared with.
func Differential(tr *trace.Trace, cfgs []core.Config) Report {
	var rep Report
	ref := -1
	for i, cfg := range cfgs {
		o := run(cfg, replay(tr))
		rep.Outcomes = append(rep.Outcomes, o)
		if o.Err != "" {
			rep.Divergences = append(rep.Divergences,
				Divergence{A: o.Name, Field: "replay", Detail: o.Err})
		} else if ref < 0 {
			ref = i
		}
	}
	for i, o := range rep.Outcomes {
		// ref < 0: every replay failed; each failure is already reported.
		if ref >= 0 && i != ref && o.Err == "" {
			rep.Divergences = append(rep.Divergences,
				compare(rep.Outcomes[ref], o, "OOM=%v vs OOM=%v")...)
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

// HeapBytesFor is the oracle's heap-sizing policy, and with Sized the only
// place a battery's heap geometry is decided: at least three times the
// subject's total allocation volume (Script.AllocBytes, trace.AllocBytes)
// plus slack, rounded to frames. At that size every configuration
// completes — even an incomplete collector that never reclaims cyclic
// garbage, and even a classical collector reserving half the heap — so an
// OOM verdict is a bug, not policy, and verdicts are comparable across
// configurations.
func HeapBytesFor(allocBytes int) int {
	hb := 3*allocBytes + 64*OracleFrameBytes
	return (hb + OracleFrameBytes - 1) / OracleFrameBytes * OracleFrameBytes
}

// Sized gives every configuration of a battery the one heap its subject
// was sized to, in oracle frames.
func Sized(cfgs []core.Config, heapBytes int) []core.Config {
	sized := make([]core.Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.HeapBytes = heapBytes
		cfg.FrameBytes = OracleFrameBytes
		cfg.PhysMemBytes = 0 // paging is a cost-model concern, not semantics
		sized[i] = cfg
	}
	return sized
}

// ScriptRun is the oracle result for one script: the recorded trace, the
// concrete (heap-sized) configurations, and the differential report.
type ScriptRun struct {
	Report
	Trace   *trace.Trace
	Configs []core.Config
	// RecordErr notes a failure while recording the reference trace
	// (an OOM prefix is not an error; a panic is).
	RecordErr string
}

// RunScript sizes every configuration by the oracle's heap policy,
// records the script's trace on the first configuration, and replays it
// differentially through all of them.
func RunScript(script Script, cfgs []core.Config) ScriptRun {
	return runConfigured(script, Sized(cfgs, HeapBytesFor(script.AllocBytes())))
}

// runConfigured is RunScript with the configurations used exactly as
// given (heap and frame sizes included) — the form fixtures replay, so a
// committed reproducer reruns bit-identically.
func runConfigured(script Script, cfgs []core.Config) ScriptRun {
	sr := ScriptRun{Configs: cfgs, Trace: trace.NewTrace()}
	if len(cfgs) == 0 {
		sr.RecordErr = "no configurations"
		return sr
	}
	sr.RecordErr = run(cfgs[0], recording(sr.Trace, execute(script))).Err
	sr.Report = Differential(sr.Trace, cfgs)
	if sr.RecordErr != "" {
		// A failure while recording is a collector bug even if every
		// replay of the surviving prefix agrees.
		sr.Divergences = append(sr.Divergences,
			Divergence{A: cfgs[0].Name, Field: "replay", Detail: "record: " + sr.RecordErr})
	}
	return sr
}

// RecordWorkload records one bundled benchmark's mutator event stream at
// the given scale on a reference collector: the trace is then
// collector-independent input for Differential.
func RecordWorkload(b *workload.Benchmark, scale float64, seed int64, cfg core.Config) (*trace.Trace, error) {
	tr := trace.NewTrace()
	out := run(cfg, recording(tr, func(m *vm.Mutator) error {
		ctx := &workload.Ctx{M: m, Types: m.C.Space().Types,
			Rng: rand.New(rand.NewSource(seed)), Scale: scale}
		return m.Run(func() { b.Body(ctx) })
	}))
	switch {
	case out.OOM:
		return nil, fmt.Errorf("check: recording %s: %w", b.Name, gc.ErrOutOfMemory)
	case out.Err != "":
		return nil, fmt.Errorf("check: recording %s: %s", b.Name, out.Err)
	}
	return tr, nil
}
