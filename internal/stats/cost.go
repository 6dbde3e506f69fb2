// Package stats provides the deterministic cost model that stands in for
// wall-clock time in this reproduction, together with event counters and
// the pause log from which GC time, total time and MMU curves are derived.
//
// The paper measured seconds on a 733MHz PowerMac G4 running Jikes RVM.
// That testbed is not available, and more importantly the paper's results
// are presented *relative to the best configuration*, so what matters is
// the relative amount of work each collector performs. The cost model
// charges a fixed number of abstract cost units for each unit of work the
// mutator and collector perform; a Clock accumulates these charges on a
// single deterministic timeline. One cost unit is nominally one
// "machine cycle" of the paper's 733MHz machine, so Seconds() divides by
// 733e6 — but absolute values should never be compared with the paper,
// only shapes.
package stats

// CostModel assigns abstract cost units to each unit of mutator and
// collector work. All fields are costs in abstract units; see the package
// comment for how units relate to reported "seconds".
type CostModel struct {
	// Mutator costs.
	AllocByte   float64 // per byte allocated (zeroing + bump + header init)
	BarrierFast float64 // per pointer store taking only the fast path
	BarrierSlow float64 // per pointer store that inserts a remset entry
	FieldAccess float64 // per non-pointer field read/write
	MutatorOp   float64 // per abstract unit of application work (traversal step etc.)
	PageByte    float64 // per byte of footprint beyond physical memory, charged per MB allocated (paging model)

	// Collector costs.
	GCSetup      float64 // fixed cost per collection (stop, pin roots, flip bookkeeping)
	RootSlot     float64 // per root-table slot scanned
	CopyByte     float64 // per byte copied to to-space
	ScanSlot     float64 // per reference slot scanned in to-space
	RemsetEntry  float64 // per remembered-set entry processed at GC
	BootScanByte float64 // per immortal/boot-image byte scanned (boundary-barrier collectors at every collection; any collector when it sweeps the LOS)
	FrameOp      float64 // per frame mapped/unmapped/retargeted during GC
	CardMark     float64 // per store under the card barrier (2-3 instructions)
	CardScanByte float64 // per byte of dirty card scanned at collections

	// Mark-region substrate costs.
	MarkObject    float64 // per object marked in place (test-and-set + queue push)
	LineSweepByte float64 // per frame byte examined by a line sweep
}

// DefaultCosts is calibrated so that, on the bundled workloads, the Appel
// baseline spends roughly 5-35% of total time in GC across the 1x-3x heap
// sweep, matching the envelope of paper Figure 1(a). The precise values
// are unimportant; ratios between fields are what shape the curves.
func DefaultCosts() CostModel {
	return CostModel{
		AllocByte:    2.0,
		BarrierFast:  3.0,
		BarrierSlow:  15.0,
		FieldAccess:  3.0,
		MutatorOp:    20.0,
		PageByte:     2.0,
		GCSetup:      5000,
		RootSlot:     4.0,
		CopyByte:     1.5,
		ScanSlot:     2.0,
		RemsetEntry:  10.0,
		BootScanByte: 0.5,
		FrameOp:      500,
		CardMark:     1.5,
		CardScanByte: 0.4,

		MarkObject:    8.0,
		LineSweepByte: 0.2,
	}
}

// CyclesPerSecond converts cost units to nominal seconds for display.
// 733e6 matches the paper's 733MHz PowerMac G4.
const CyclesPerSecond = 733e6
