package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// FileFlags are the observability file destinations every front end
// offers (-trace-out, -metrics-out, -timeline), declared once.
type FileFlags struct {
	trace, metrics, timeline *string
}

// BindFileFlags declares the three flags on fs.
func BindFileFlags(fs *flag.FlagSet) *FileFlags {
	return &FileFlags{
		trace: fs.String("trace-out", "",
			"write a Chrome trace_event JSON of every run's GC events (open in chrome://tracing or Perfetto)"),
		metrics: fs.String("metrics-out", "",
			"write the runs' counters and exact pause/latency quantiles, per collector, in Prometheus text exposition format"),
		timeline: fs.String("timeline", "",
			"write an ASCII heap-composition timeline per run ('-' for stdout)"),
	}
}

// Events reports whether a destination that renders event streams was
// given (-trace-out, -timeline), i.e. whether the runs need Env.Telemetry;
// -metrics-out is rendered from the results and needs none.
func (f *FileFlags) Events() bool { return *f.trace != "" || *f.timeline != "" }

// Any reports whether any destination was given.
func (f *FileFlags) Any() bool { return f.Events() || *f.metrics != "" }

// Write writes the requested files — the runs' events as timelines and
// as one Chrome trace, and whatever metrics renders (harness.WriteMetrics
// over the runs' results) — and notes each on stderr under the program's
// name. An error names the flag it belongs to.
func (f *FileFlags) Write(prog string, runs []TraceRun, metrics func(io.Writer) error) error {
	timelines := func(w io.Writer) error {
		for _, r := range runs {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := WriteTimeline(w, r.Name, r.Events); err != nil {
				return err
			}
		}
		return nil
	}
	if *f.timeline == "-" {
		if err := timelines(os.Stdout); err != nil {
			return fmt.Errorf("-timeline: %w", err)
		}
	} else if err := writeFile(prog, "-timeline", *f.timeline, "heap timelines", timelines); err != nil {
		return err
	}
	trace := func(w io.Writer) error { return WriteChromeTrace(w, runs) }
	if err := writeFile(prog, "-trace-out", *f.trace, "Chrome trace", trace); err != nil {
		return err
	}
	return writeFile(prog, "-metrics-out", *f.metrics, "Prometheus metrics", metrics)
}

// writeFile creates path (nothing to do when it is empty), fills it
// through write and closes it.
func writeFile(prog, flagName, path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	file, err := os.Create(path)
	if err == nil {
		err = write(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %s to %s\n", prog, what, path)
	return nil
}
