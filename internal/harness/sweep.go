package harness

import (
	"fmt"
	"math"

	"beltway/internal/engine"
	"beltway/internal/workload"
)

// Collector names a curried configuration for sweeps: Make produces the
// config for each heap size the sweep visits.
type Collector struct {
	Name string
	Make ConfigFunc
}

// Spec is one measurement of the collector: the workload in a heap of
// heapBytes under env. The experiment tags a family of runs whose
// (collector, workload, heap size) would otherwise collide with another
// family's under a different Env — the pretenuring ablation, the
// adaptive pairs — and is "" for the runs every figure shares.
func (c Collector) Spec(experiment string, w Workload, heapBytes int, env Env) RunSpec {
	return RunSpec{
		Key:      engine.Key{Experiment: experiment, Collector: c.Name, Benchmark: w.Name(), HeapBytes: heapBytes},
		Make:     c.Make,
		Workload: w,
		Env:      env,
	}
}

// HeapSizes returns n log-spaced heap sizes from min to ratio*min,
// rounded to frame granularity — the paper's "33 heap sizes, ranging
// from the smallest one in which the program completes up to 3 times
// that size", on a log x-axis.
func HeapSizes(minHeap int, ratio float64, n, frameBytes int) []int {
	if n < 2 {
		return []int{minHeap}
	}
	sizes := make([]int, 0, n)
	for i := 0; i < n; i++ {
		f := math.Pow(ratio, float64(i)/float64(n-1))
		s := int(float64(minHeap) * f)
		s = (s / frameBytes) * frameBytes
		if s < minHeap {
			s = minHeap
		}
		if len(sizes) > 0 && s <= sizes[len(sizes)-1] {
			s = sizes[len(sizes)-1] + frameBytes
		}
		sizes = append(sizes, s)
	}
	return sizes
}

// SweepPoint is one (collector, heap size) cell of a sweep, holding the
// per-benchmark results. HeapBytes and HeapRel (heap size over minimum
// heap, after frame rounding) are those of the sweep's last benchmark:
// every benchmark sits at the same log-spaced factor of its own minimum.
type SweepPoint struct {
	Collector string
	HeapBytes int
	HeapRel   float64
	Results   []*Result
}

// Sweep is the grid behind the paper's figures: every collector at
// Points log-spaced heap sizes over the given benchmarks. Heap sizes are
// derived per benchmark — the factor f in [1,Ratio] maps to
// f * MinHeaps[benchmark] — so curves are comparable across benchmarks
// on the paper's relative axis.
type Sweep struct {
	Env        Env
	Collectors []Collector
	Benchmarks []*workload.Benchmark
	MinHeaps   map[string]int // per benchmark, as MinHeaps returns them
	Ratio      float64        // default 3
	Points     int            // default 33
}

// Run expands the grid — here and nowhere else — into one untagged
// RunSpec per (benchmark, collector, heap size), in that order, runs them
// as one batch on x and reassembles the points [collector][point] in
// submission order, so the output is that of a sequential sweep whatever
// the worker count or completion order. A job that panics or times out
// degrades to a failed Result (rendered as a missing point) instead of
// killing the sweep; a key x already holds is not run again.
func (s Sweep) Run(x *Executor) ([][]SweepPoint, error) {
	if s.Ratio == 0 {
		s.Ratio = 3
	}
	if s.Points == 0 {
		s.Points = 33
	}
	out := make([][]SweepPoint, len(s.Collectors))
	for ci, col := range s.Collectors {
		out[ci] = make([]SweepPoint, s.Points)
		for pi := range out[ci] {
			out[ci][pi].Collector = col.Name
		}
	}
	var specs []RunSpec
	for _, bench := range s.Benchmarks {
		min, ok := s.MinHeaps[bench.Name]
		if !ok {
			return nil, fmt.Errorf("harness: no min heap for %s", bench.Name)
		}
		sizes := HeapSizes(min, s.Ratio, s.Points, s.Env.FrameBytes)
		for _, col := range s.Collectors {
			for _, size := range sizes {
				specs = append(specs, col.Spec("", Bench(bench), size, s.Env))
			}
		}
	}
	results, err := x.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		// specs[i] is benchmark i/(C*P), collector i/P%C, point i%P.
		p := &out[i/s.Points%len(s.Collectors)][i%s.Points]
		p.HeapBytes = specs[i].Key.HeapBytes
		p.HeapRel = float64(p.HeapBytes) / float64(s.MinHeaps[specs[i].Key.Benchmark])
		p.Results = append(p.Results, res)
	}
	return out, nil
}

// Metric extracts a scalar from a Result.
type Metric func(*Result) float64

// TotalTime and GCTime are the two metrics every figure uses.
var (
	TotalTime Metric = func(r *Result) float64 { return r.TotalTime }
	GCTime    Metric = func(r *Result) float64 { return r.GCTime }
)

// RelativeToBest normalizes, per benchmark, each completed result by the
// best (smallest) value of the metric observed for that benchmark
// anywhere in the sweep — the paper's "relative to best result (lower is
// better)" y-axis — then geometric-means across benchmarks per point.
// Points where any benchmark OOMed get NaN (the paper's plots likewise
// have no datapoint there: "the lack of results for small heap sizes...
// illustrates the failure of the generational collector").
func RelativeToBest(points [][]SweepPoint, m Metric) [][]float64 {
	best := make(map[string]float64)
	for _, row := range points {
		for _, p := range row {
			for _, r := range p.Results {
				if r.Incomplete() {
					continue
				}
				v := m(r)
				if v <= 0 {
					continue
				}
				if b, ok := best[r.Benchmark]; !ok || v < b {
					best[r.Benchmark] = v
				}
			}
		}
	}
	out := make([][]float64, len(points))
	for ci, row := range points {
		out[ci] = make([]float64, len(row))
		for pi, p := range row {
			out[ci][pi] = geoMeanRel(p.Results, m, best)
		}
	}
	return out
}

func geoMeanRel(results []*Result, m Metric, best map[string]float64) float64 {
	if len(results) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, r := range results {
		if r.Incomplete() {
			return math.NaN()
		}
		b := best[r.Benchmark]
		v := m(r)
		if b <= 0 || v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v / b)
	}
	return math.Exp(sum / float64(len(results)))
}

// AbsoluteGeoMean returns the geometric mean of the raw metric across
// benchmarks per point (the right-hand "time in seconds" axis of the
// paper's figures).
func AbsoluteGeoMean(points [][]SweepPoint, m Metric) [][]float64 {
	out := make([][]float64, len(points))
	for ci, row := range points {
		out[ci] = make([]float64, len(row))
		for pi, p := range row {
			if len(p.Results) == 0 {
				out[ci][pi] = math.NaN()
				continue
			}
			sum, n := 0.0, 0
			bad := false
			for _, r := range p.Results {
				if r.Incomplete() {
					bad = true
					break
				}
				v := m(r)
				if v <= 0 {
					bad = true
					break
				}
				sum += math.Log(v)
				n++
			}
			if bad || n == 0 {
				out[ci][pi] = math.NaN()
			} else {
				out[ci][pi] = math.Exp(sum / float64(n))
			}
		}
	}
	return out
}

// BenchmarkSeries extracts, for one benchmark, the metric per point
// relative to that benchmark's best (for the per-benchmark Figure 10
// plots). NaN marks OOM points.
func BenchmarkSeries(points [][]SweepPoint, benchName string, m Metric) [][]float64 {
	best := math.Inf(1)
	for _, row := range points {
		for _, p := range row {
			for _, r := range p.Results {
				if r.Benchmark == benchName && !r.Incomplete() {
					if v := m(r); v > 0 && v < best {
						best = v
					}
				}
			}
		}
	}
	out := make([][]float64, len(points))
	for ci, row := range points {
		out[ci] = make([]float64, len(row))
		for pi, p := range row {
			out[ci][pi] = math.NaN()
			for _, r := range p.Results {
				if r.Benchmark == benchName && !r.Incomplete() {
					if v := m(r); v > 0 && !math.IsInf(best, 1) {
						out[ci][pi] = v / best
					}
				}
			}
		}
	}
	return out
}
