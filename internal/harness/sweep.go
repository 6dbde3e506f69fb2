package harness

import (
	"fmt"
	"math"
	"sort"

	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/workload"
)

// Collector names a curried configuration for sweeps: Make produces the
// config for each heap size the sweep visits.
type Collector struct {
	Name string
	Make ConfigFunc
}

// WithHeap is a convenience for wrapping a preset function that takes
// only options; see cmd/experiments for usage.
func WithHeap(name string, f func(heapBytes int) core.Config) Collector {
	return Collector{Name: name, Make: f}
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
// per-benchmark results.
type SweepPoint struct {
	Collector string
	HeapBytes int
	HeapRel   float64 // heap size relative to the benchmark-set minimum
	Results   []*Result
}

// Sweep runs every collector at every heap size over the given
// benchmarks. Heap sizes are derived per benchmark: factor f in [1,ratio]
// maps to f * minHeap(benchmark), so curves are comparable across
// benchmarks on the paper's relative axis.
type Sweep struct {
	Env        Env
	Collectors []Collector
	Benchmarks []*workload.Benchmark
	MinHeaps   map[string]int // per benchmark; computed by FindMinHeaps
	Ratio      float64        // default 3
	Points     int            // default 33
	// Progress, if non-nil, receives a line per completed run.
	Progress func(string)
	// Exec configures parallel execution: worker count, checkpoint file,
	// resume, per-job timeout. The zero value runs on GOMAXPROCS workers
	// with no checkpoint. Exec.Progress defaults to Progress.
	Exec engine.Config
}

// Run executes the sweep: the (benchmark, collector, heap size)
// cross-product is submitted as independent jobs to a bounded worker
// pool, and the points are reassembled in deterministic submission order,
// so the output is identical to a sequential sweep regardless of worker
// count or completion order. A job that panics or times out degrades to a
// failed Result (rendered as a missing point) instead of killing the
// sweep. The result is indexed [collector][point].
func (s *Sweep) Run() ([][]SweepPoint, error) {
	if s.Ratio == 0 {
		s.Ratio = 3
	}
	if s.Points == 0 {
		s.Points = 33
	}
	out := make([][]SweepPoint, len(s.Collectors))
	for ci, col := range s.Collectors {
		out[ci] = make([]SweepPoint, s.Points)
		for pi := 0; pi < s.Points; pi++ {
			f := math.Pow(s.Ratio, float64(pi)/float64(s.Points-1))
			out[ci][pi] = SweepPoint{Collector: col.Name, HeapRel: f}
		}
	}

	type slot struct{ ci, pi int }
	var specs []RunSpec
	var slots []slot
	for _, bench := range s.Benchmarks {
		min, ok := s.MinHeaps[bench.Name]
		if !ok {
			return nil, fmt.Errorf("harness: no min heap for %s", bench.Name)
		}
		sizes := HeapSizes(min, s.Ratio, s.Points, s.Env.FrameBytes)
		for ci, col := range s.Collectors {
			for pi, size := range sizes {
				specs = append(specs, RunSpec{
					Key:      engine.Key{Collector: col.Name, Benchmark: bench.Name, HeapBytes: size},
					Make:     col.Make,
					Workload: Bench(bench),
					Env:      s.Env,
				})
				slots = append(slots, slot{ci, pi})
			}
		}
	}

	cfg := s.Exec
	if cfg.Progress == nil {
		cfg.Progress = s.Progress
	}
	x := NewExecutor(cfg)
	defer x.Close()
	results, _, err := x.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		sl := slots[i]
		out[sl.ci][sl.pi].HeapBytes = specs[i].Key.HeapBytes
		out[sl.ci][sl.pi].Results = append(out[sl.ci][sl.pi].Results, res)
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

// SortedBenchmarkNames lists the benchmarks present in a sweep.
func SortedBenchmarkNames(points [][]SweepPoint) []string {
	seen := map[string]bool{}
	var names []string
	for _, row := range points {
		for _, p := range row {
			for _, r := range p.Results {
				if !seen[r.Benchmark] {
					seen[r.Benchmark] = true
					names = append(names, r.Benchmark)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}
