package harness

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"beltway/internal/server"
	"beltway/internal/stats"
)

// WriteMetrics renders results as Prometheus text, one sample set per
// collector name — what -metrics-out writes. Nothing here is counted a
// second time; every series is read off the Results the tables are
// printed from:
//
//   - gc_<field>_total, a counter per stats.Counters field (named
//     mechanically: BytesCopied is gc_bytes_copied_total), summed over
//     the collector's results by Counters.Add;
//   - gc_pause_cost_units, a summary: the exact nearest-rank quantiles of
//     the collector's pooled pause list (stats.SummarizePauses, the
//     definition behind ResultsTable's pause columns), their sum and count;
//   - server_request_latency_cost_units, a summary off server.Report's
//     overall distribution, and server_slo_violations_total — present when
//     a result carries a report. A report carries distributions, not the
//     per-request latencies, so quantiles are written for a collector with
//     one report (exact) and left out where several would have to be
//     pooled; count and sum (mean × count) add either way;
//   - policy_decisions_total off policy.Summary, when a result carries one.
//
// Integer sums and quantiles of a pooled sample do not depend on the
// order of results; the two float sums do in their last bits, so callers
// pass results in a fixed order (every front end does: table order).
func WriteMetrics(w io.Writer, results []*Result) error {
	type tally struct {
		labels string
		counts stats.Counters
		pauses []stats.Pause

		reports, requests, violations int
		latency                       server.Dist // the one report's
		latencySum                    float64
		decisions                     int
	}
	by := map[string]*tally{}
	var names []string
	serving, adaptive := false, false
	for _, r := range results {
		if r == nil {
			continue
		}
		t := by[r.Collector]
		if t == nil {
			t = &tally{labels: `collector="` + promEscaper.Replace(r.Collector) + `"`}
			by[r.Collector] = t
			names = append(names, r.Collector)
		}
		t.counts.Add(r.Counters)
		t.pauses = append(t.pauses, r.Pauses...)
		if r.Server != nil {
			serving = true
			t.reports++
			t.latency = r.Server.Overall.Latency
			t.requests += t.latency.Count
			t.latencySum += t.latency.Mean * float64(t.latency.Count)
			t.violations += r.Server.Violations()
		}
		if r.Policy != nil {
			adaptive = true
			t.decisions += r.Policy.Decisions
		}
	}
	sort.Strings(names)
	tallies := make([]*tally, len(names))
	counts := make([]countSet, len(names))
	for i, name := range names {
		tallies[i] = by[name]
		counts[i] = countSet{tallies[i].labels, tallies[i].counts}
	}

	p := &promWriter{w: w}
	p.counters("gc", counts)
	p.family("gc_pause_cost_units", "summary")
	for _, t := range tallies {
		ps := stats.SummarizePauses(t.pauses)
		p.summary("gc_pause_cost_units", t.labels, ps.Total, ps.Count,
			0.5, ps.Median, 0.95, ps.P95, 0.99, ps.P99, 1, ps.Max)
	}
	if serving {
		p.family("server_request_latency_cost_units", "summary")
		for _, t := range tallies {
			var quantiles []float64
			if d := t.latency; t.reports == 1 {
				quantiles = []float64{0.5, d.P50, 0.95, d.P95, 0.99, d.P99, 0.999, d.P999, 1, d.Max}
			}
			if t.reports > 0 {
				p.summary("server_request_latency_cost_units", t.labels, t.latencySum, t.requests, quantiles...)
			}
		}
		p.family("server_slo_violations_total", "counter")
		for _, t := range tallies {
			if t.reports > 0 {
				p.sample("server_slo_violations_total", t.labels, strconv.Itoa(t.violations))
			}
		}
	}
	if adaptive {
		p.family("policy_decisions_total", "counter")
		for _, t := range tallies {
			p.sample("policy_decisions_total", t.labels, strconv.Itoa(t.decisions))
		}
	}
	return p.err
}

// WriteCounters renders counts — a struct whose every field is an integer
// count — as Prometheus text: the counter <prefix>_<field>_total per
// field (cmd/farm -metrics-out over farm.Summary).
func WriteCounters(w io.Writer, prefix string, counts any) error {
	p := &promWriter{w: w}
	p.counters(prefix, []countSet{{"", counts}})
	return p.err
}

// promWriter is the only code that knows the Prometheus text exposition
// format: a "# TYPE" line per family, then its samples. The first write
// error sticks.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *promWriter) family(name, kind string) { p.printf("# TYPE %s %s\n", name, kind) }

func (p *promWriter) sample(name, labels, value string) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %s\n", name, labels, value)
}

// summary writes one label set of a summary family: a sample per
// (quantile, value) pair, then the _sum and _count series.
func (p *promWriter) summary(name, labels string, sum float64, count int, quantiles ...float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i := 0; i < len(quantiles); i += 2 {
		p.sample(name, labels+sep+`quantile="`+promFloat(quantiles[i])+`"`, promFloat(quantiles[i+1]))
	}
	p.sample(name+"_sum", labels, promFloat(sum))
	p.sample(name+"_count", labels, strconv.Itoa(count))
}

// countSet is one labelled struct of integer counts.
type countSet struct {
	labels string
	counts any
}

// counters writes every field of the sets' structs — all of one type,
// every field an integer count — as the counter family
// <prefix>_<field>_total, one sample per set: the loop
// stats.Counters.Add runs, so a counter added there appears here.
func (p *promWriter) counters(prefix string, sets []countSet) {
	if len(sets) == 0 {
		return
	}
	typ := reflect.TypeOf(sets[0].counts)
	for f := 0; f < typ.NumField(); f++ {
		name := prefix + "_" + snake(typ.Field(f).Name) + "_total"
		p.family(name, "counter")
		for _, set := range sets {
			p.sample(name, set.labels, fmt.Sprint(reflect.ValueOf(set.counts).Field(f).Interface()))
		}
	}
}

// promFloat is the shortest decimal that parses back to v bit for bit.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promEscaper escapes a label value per the exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// snake turns a field name into a metric name part: BytesCopied is
// bytes_copied, MRLinesReclaimed mr_lines_reclaimed, RemsetEntriesGC
// remset_entries_gc.
func snake(field string) string {
	var b strings.Builder
	rs := []rune(field)
	for i, r := range rs {
		if i > 0 && unicode.IsUpper(r) &&
			(!unicode.IsUpper(rs[i-1]) || i+1 < len(rs) && unicode.IsLower(rs[i+1])) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
