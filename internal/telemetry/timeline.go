package telemetry

import (
	"fmt"
	"io"
	"strings"

	"beltway/internal/gc"
	"beltway/internal/stats"
)

// timelineBarWidth is the width of one belt's occupancy bar.
const timelineBarWidth = 24

// WriteTimeline renders an ASCII heap-composition timeline from a run's
// event stream: one row per collection showing the trigger, the pause,
// and each belt's occupancy after the collection (a bar scaled to the
// run's peak belt occupancy, annotated "increments:bytes"). It echoes
// the paper's Fig. 2/3 belt diagrams over time.
func WriteTimeline(w io.Writer, name string, events []Event) error {
	// Pass 1: belt count and occupancy peak, for stable layout.
	nBelts := 0
	peak := uint64(0)
	for _, e := range events {
		if e.Kind == EvBelt {
			if int(e.A)+1 > nBelts {
				nBelts = int(e.A) + 1
			}
			if e.C > peak {
				peak = e.C
			}
		}
	}
	if _, err := fmt.Fprintf(w, "heap timeline: %s\n", name); err != nil {
		return err
	}
	if nBelts == 0 {
		_, err := fmt.Fprintln(w, "  (no collections recorded)")
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-5s %-9s %-12s %-9s", "gc", "t(s)", "trigger", "pause(ms)"); err != nil {
		return err
	}
	for b := 0; b < nBelts; b++ {
		if _, err := fmt.Fprintf(w, " %-*s", timelineBarWidth+10, fmt.Sprintf("belt %d", b)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	var begin Event
	haveBegin := false
	var end Event
	haveEnd := false
	belts := make([]Event, nBelts)
	seen := make([]bool, nBelts)
	flush := func() error {
		if !haveEnd {
			return nil
		}
		trig := "?"
		if haveBegin {
			trig = gc.TriggerKind(begin.A).String()
			if begin.A>>8 != 0 {
				trig += "!" // full collection
			}
		}
		line := fmt.Sprintf("  %-5d %-9.3f %-12s %-9.2f",
			end.GC, end.Time/stats.CyclesPerSecond, trig, end.Dur/stats.CyclesPerSecond*1e3)
		for b := 0; b < nBelts; b++ {
			cell := "-"
			if seen[b] {
				cell = bar(belts[b].C, peak) + fmt.Sprintf(" %d:%s", belts[b].B, fmtBytes(belts[b].C))
			}
			line += fmt.Sprintf(" %-*s", timelineBarWidth+10, cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(line, " "))
		haveBegin, haveEnd = false, false
		for i := range seen {
			seen[i] = false
		}
		return err
	}
	for _, e := range events {
		switch e.Kind {
		case EvGCBegin:
			if err := flush(); err != nil {
				return err
			}
			begin, haveBegin = e, true
		case EvGCEnd:
			end, haveEnd = e, true
		case EvBelt:
			if int(e.A) < nBelts {
				belts[e.A], seen[e.A] = e, true
			}
		case EvOOM:
			if err := flush(); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "  OOM   %-9.3f requested=%d heap=%d\n",
				e.Time/stats.CyclesPerSecond, e.A, e.B); err != nil {
				return err
			}
		case EvFlip:
			if err := flush(); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "  flip  %-9.3f alloc belt -> %d (remset %d)\n",
				e.Time/stats.CyclesPerSecond, e.A, e.B); err != nil {
				return err
			}
		}
	}
	return flush()
}

// bar renders v against peak as a fixed-width '#' bar.
func bar(v, peak uint64) string {
	if peak == 0 {
		return strings.Repeat(".", timelineBarWidth)
	}
	n := int(float64(v) / float64(peak) * timelineBarWidth)
	if n > timelineBarWidth {
		n = timelineBarWidth
	}
	if v > 0 && n == 0 {
		n = 1
	}
	return strings.Repeat("#", n) + strings.Repeat(".", timelineBarWidth-n)
}

// fmtBytes renders a byte count compactly (K/M suffixes).
func fmtBytes(b uint64) string {
	switch {
	case b >= 10*1024*1024:
		return fmt.Sprintf("%dM", b/(1024*1024))
	case b >= 10*1024:
		return fmt.Sprintf("%dK", b/1024)
	default:
		return fmt.Sprintf("%d", b)
	}
}
