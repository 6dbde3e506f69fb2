package server

import (
	"fmt"
	"slices"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
	"beltway/internal/vm"
)

// bucketSize is the fan-out of the keyed store's directory: keys live in
// ref-array buckets of this many slots, reached through a global
// directory array, so a lookup costs two reference reads — the same
// chunked-table shape the db workload uses.
const bucketSize = 256

// RequestKind discriminates requests in telemetry payloads.
const (
	KindRead  = 0
	KindWrite = 1
)

// Phase is one segment of the request script. Phases run in order; each
// fully specifies the traffic mix for its span and may open with a shift:
// a popularity reshuffle (new key permutation), working-set growth (new
// keys populated and added to the rank space), or simply different
// read/hot fractions (a ratio flip is a phase whose ReadFrac inverts the
// previous one's).
type Phase struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	ReadFrac float64 `json:"read_frac"` // fraction of requests that read
	HotFrac  float64 `json:"hot_frac"`  // fraction forced onto the hot-key set
	// Reshuffle re-permutes key popularity at phase entry: every rank is
	// reassigned to a (deterministically) random key, so the hot set
	// moves and the collector's nursery suddenly churns cold objects.
	Reshuffle bool `json:"reshuffle,omitempty"`
	// GrowKeys adds this many fresh keys at phase entry, populated
	// outside any request (background expansion) and appended to the
	// Zipf rank space.
	GrowKeys int `json:"grow_keys,omitempty"`
}

// The request stream's shape: one value each, the same in every run.
const (
	// theta is the Zipf skew in (0, 1); 0.99 is the classic YCSB
	// "zipfian" setting, lower is flatter.
	theta = 0.8
	// valueWordsMin/Max bound the uniform value-size distribution, in
	// heap words per value object.
	valueWordsMin = 16
	valueWordsMax = 64
	// batch is the arrival batch size: requests are served in batches of
	// this many, with batchGapWork units of non-request work between
	// batches (queue drain / idle).
	batch        = 64
	batchGapWork = 32
	// requestWork is the application work charged per request on top of
	// store traffic.
	requestWork = 20
	// scratchWords is the per-request transient allocation (response
	// assembly buffer), in heap words. It dies with the request's scope,
	// so it is pure nursery churn: what decides how often collections
	// interleave with the request stream.
	scratchWords = 128
)

// Config parameterizes a server workload. The zero value is not
// runnable; start from Default() or Scaled().
type Config struct {
	// Keys is the initial working-set size. The contended hot set is
	// Keys/64 of them (at least one).
	Keys int
	// Seed derives the request stream. Sharded serving decorrelates
	// per-shard streams with shard.StreamSeed, whose shard 0 is the
	// identity — a 1-shard run replays the flat stream exactly.
	Seed int64
	// Phases is the request script; total requests is the sum of phase
	// lengths.
	Phases []Phase
}

// Default returns the canonical three-phase workload: a read-heavy
// steady state, a popularity reshuffle with the read/write ratio
// flipped, and a growth phase returning to the steady mix over a larger
// working set. It exercises every scripted shift.
func Default() Config {
	return Config{
		Keys: 16384,
		Seed: 20020617,
		Phases: []Phase{
			{Name: "steady", Requests: 12000, ReadFrac: 0.9, HotFrac: 0.1},
			{Name: "flip", Requests: 12000, ReadFrac: 0.1, HotFrac: 0.1, Reshuffle: true},
			{Name: "growth", Requests: 12000, ReadFrac: 0.9, HotFrac: 0.1, GrowKeys: 8192},
		},
	}
}

// Scaled returns Default() with request counts and working set scaled,
// matching the harness's workload-scale convention (floors keep tiny
// scales runnable).
func Scaled(scale float64) Config {
	c := Default()
	scaleInt := func(n int, floor int) int {
		v := int(float64(n) * scale)
		if v < floor {
			v = floor
		}
		return v
	}
	c.Keys = scaleInt(c.Keys, 256)
	for i := range c.Phases {
		c.Phases[i].Requests = scaleInt(c.Phases[i].Requests, 200)
		if c.Phases[i].GrowKeys > 0 {
			c.Phases[i].GrowKeys = scaleInt(c.Phases[i].GrowKeys, 128)
		}
	}
	return c
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Keys < 1 {
		return fmt.Errorf("server: need at least 1 key, have %d", c.Keys)
	}
	if len(c.Phases) == 0 {
		return fmt.Errorf("server: need at least one phase")
	}
	for i, p := range c.Phases {
		if p.Requests < 1 {
			return fmt.Errorf("server: phase %d (%s) has no requests", i, p.Name)
		}
		if p.ReadFrac < 0 || p.ReadFrac > 1 || p.HotFrac < 0 || p.HotFrac > 1 {
			return fmt.Errorf("server: phase %d (%s) fractions out of [0,1]", i, p.Name)
		}
	}
	return nil
}

// TotalRequests sums the phase lengths.
func (c *Config) TotalRequests() int {
	n := 0
	for _, p := range c.Phases {
		n += p.Requests
	}
	return n
}

// MaxKeys is the working-set size after every growth phase.
func (c *Config) MaxKeys() int {
	n := c.Keys
	for _, p := range c.Phases {
		n += p.GrowKeys
	}
	return n
}

// Batches is the number of arrival batches the script spans — the round
// count of a sharded serving plan.
func (c *Config) Batches() int {
	return (c.TotalRequests() + batch - 1) / batch
}

// EstLiveBytes estimates the store's resident size at full growth:
// the heap-sizing baseline for server sweeps (heap = factor × live set).
func (c *Config) EstLiveBytes() int {
	avg := (valueWordsMin + valueWordsMax) / 2
	maxKeys := c.MaxKeys()
	values := maxKeys * (3 + avg) * heap.WordBytes // headerWords = 3
	buckets := ((maxKeys+bucketSize-1)/bucketSize + 1) * (3 + bucketSize) * heap.WordBytes
	return values + buckets
}

// Observer receives per-request measurements (telemetry wiring; see
// telemetry.ServerObserver). Implementations must not advance the clock.
type Observer interface {
	// Request reports one served request: its kind (KindRead/KindWrite),
	// phase index, key, start time, latency and the portion of the
	// latency spent inside GC pauses — all in cost units.
	Request(kind, phase, key int, start, latency, pauseCost float64)
}

// Loop is a resumable executor for one configuration on one mutator:
// RunBatch serves the next arrival batch, so a plan's round is a batch.
// NewLoop allocates nothing on the simulated heap;
// Start and every RunBatch must happen inside vm.Mutator.Run (allocation
// failures surface as OOM panics). A Loop kept from run to run (Reset)
// serves each script in the storage the scripts before it grew.
type Loop struct {
	cfg     Config
	m       *vm.Mutator
	clock   *stats.Clock
	obs     Observer
	started bool

	rng  rng
	zipf zipf
	perm []int // rank -> key, with room for every growth phase

	dir         gc.Handle
	valType     *heap.TypeDesc
	bucketType  *heap.TypeDesc
	dirType     *heap.TypeDesc
	scratchType *heap.TypeDesc
	nKeys       int
	writeSeq    uint32

	phase    int // current phase index
	inPhase  int // requests served in the current phase
	done     int
	total    int
	finished bool

	// lats is every request's latency in arrival order, one buffer of at
	// least the whole script, grown by Reset; starts[i] is where phase
	// i's requests begin in it, recorded as the phase is entered, so a
	// phase's stream is a sub-slice and a phase never entered has no
	// entry. ReportLoops sorts each phase in its place.
	lats   []float64
	starts []int
	// Per-phase counts. counts is the array starts, reads, writes and
	// paused are carved from.
	counts    []int
	reads     []int
	writes    []int
	paused    []int
	worstInfl []float64

	checksum uint64
}

// LoopOpts wires a Loop to its environment.
type LoopOpts struct {
	// Observer, if non-nil, receives every request (telemetry).
	Observer Observer
}

// NewLoop validates the configuration and prepares the executor without
// touching the heap, so a sharded plan can hold a Loop per shard before
// any round runs.
func NewLoop(cfg Config, opts LoopOpts) (*Loop, error) {
	l := new(Loop)
	if err := l.Reset(cfg, opts); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset makes l the Loop NewLoop(cfg, opts) returns, its latency buffer,
// key permutation and per-phase counts in the arrays l had: a loop kept
// from one run to the next (a harness lane's) serves the next script
// allocating none. Report the run before first.
func (l *Loop) Reset(cfg Config, opts LoopOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	total := cfg.TotalRequests()
	// The per-phase counts share one array.
	n := len(cfg.Phases)
	counts := slices.Grow(l.counts[:0], 4*n)[:4*n]
	worstInfl := slices.Grow(l.worstInfl[:0], n)[:n]
	clear(counts)
	clear(worstInfl)
	lats := slices.Grow(l.lats[:0], total)
	perm := slices.Grow(l.perm[:0], cfg.MaxKeys())
	*l = Loop{
		cfg:       cfg,
		obs:       opts.Observer,
		rng:       seededRNG(cfg.Seed),
		zipf:      makeZipf(cfg.Keys, theta),
		total:     total,
		perm:      perm,
		lats:      lats,
		counts:    counts,
		starts:    counts[0:0:n],
		reads:     counts[n : 2*n : 2*n],
		writes:    counts[2*n : 3*n : 3*n],
		paused:    counts[3*n : 4*n : 4*n],
		worstInfl: worstInfl,
	}
	return nil
}

// Start builds the store and populates the initial working set on the
// given mutator (charged to the clock, outside any request — the
// server's warmup). Must run inside vm.Mutator.Run; idempotent.
func (l *Loop) Start(m *vm.Mutator, types *heap.Registry) {
	if l.started {
		return
	}
	l.m = m
	l.clock = m.C.Clock()
	l.valType = lookupOrDefineWordArray(types, "srv.val")
	l.bucketType = lookupOrDefineRefArray(types, "srv.bucket")
	l.dirType = lookupOrDefineRefArray(types, "srv.dir")
	l.scratchType = lookupOrDefineWordArray(types, "srv.scratch")

	cfg := l.cfg
	dirLen := (cfg.MaxKeys() + bucketSize - 1) / bucketSize
	l.dir = m.AllocGlobal(l.dirType, dirLen)
	// started flips before population: a mid-populate OOM leaves a
	// partial store, and retrying would double-draw the RNG stream.
	l.started = true
	l.populate(0, cfg.Keys)
	l.nKeys = cfg.Keys
	l.perm = l.perm[:cfg.Keys]
	for i := range l.perm {
		l.perm[i] = i
	}
	l.enterPhase(0)
}

func lookupOrDefineWordArray(r *heap.Registry, name string) *heap.TypeDesc {
	if t := r.Lookup(name); t != nil {
		return t
	}
	return r.DefineWordArray(name)
}

func lookupOrDefineRefArray(r *heap.Registry, name string) *heap.TypeDesc {
	if t := r.Lookup(name); t != nil {
		return t
	}
	return r.DefineRefArray(name)
}

// Done reports whether every request has been served.
func (l *Loop) Done() bool { return l.done >= l.total }

// Served returns the number of requests completed so far.
func (l *Loop) Served() int { return l.done }

// RunBatch serves the next arrival batch (a no-op once done). After the
// final request it fingerprints the live store, so a completed loop's
// measurement is closed without further calls.
func (l *Loop) RunBatch() {
	if !l.started || l.Done() {
		return
	}
	n := batch
	if rem := l.total - l.done; rem < n {
		n = rem
	}
	for i := 0; i < n; i++ {
		l.request()
	}
	if l.Done() {
		l.finish()
	} else {
		l.m.Work(batchGapWork)
	}
}

// request serves one request, stamping start/end on the cost-unit clock.
func (l *Loop) request() {
	l.advancePhase()
	ph := l.cfg.Phases[l.phase]
	isRead := l.rng.Float64() < ph.ReadFrac
	var rank int
	if ph.HotFrac > 0 && l.rng.Float64() < ph.HotFrac {
		// The hot set: the most popular 1/64 of the initial keys.
		rank = l.rng.Intn(max(l.cfg.Keys/64, 1))
	} else {
		rank = l.zipf.Sample(&l.rng)
	}
	key := l.perm[rank]

	start := l.clock.Now()
	gcBefore := l.clock.GCTime()
	l.m.Push()
	if isRead {
		l.doRead(key)
	} else {
		l.doWrite(key)
	}
	// Response assembly: a transient buffer that dies with the scope.
	sh := l.m.Alloc(l.scratchType, scratchWords)
	l.m.SetData(sh, 0, uint32(key))
	l.m.SetData(sh, scratchWords-1, l.writeSeq)
	l.m.Work(requestWork)
	l.m.Pop()
	lat := l.clock.Now() - start
	pauseCost := l.clock.GCTime() - gcBefore

	p := l.phase
	l.lats = append(l.lats, lat)
	if isRead {
		l.reads[p]++
	} else {
		l.writes[p]++
	}
	if pauseCost > 0 {
		l.paused[p]++
		if base := lat - pauseCost; base > 0 {
			if infl := lat / base; infl > l.worstInfl[p] {
				l.worstInfl[p] = infl
			}
		}
	}
	kind := KindWrite
	if isRead {
		kind = KindRead
	}
	if l.obs != nil {
		l.obs.Request(kind, p, key, start, lat, pauseCost)
	}
	l.inPhase++
	l.done++
}

// advancePhase enters the next phase when the current one's span is
// exhausted, applying its scripted shifts.
func (l *Loop) advancePhase() {
	for l.phase < len(l.cfg.Phases)-1 && l.inPhase >= l.cfg.Phases[l.phase].Requests {
		l.phase++
		l.inPhase = 0
		l.enterPhase(l.phase)
	}
}

// enterPhase applies a phase's shifts: growth first (new keys join the
// rank space at the cold end), then the reshuffle. The phase's latency
// stream starts where the one before it ended.
func (l *Loop) enterPhase(i int) {
	p := l.cfg.Phases[i]
	l.starts = append(l.starts, len(l.lats))
	if p.GrowKeys > 0 {
		from := l.nKeys
		l.populate(from, from+p.GrowKeys)
		for k := from; k < from+p.GrowKeys; k++ {
			l.perm = append(l.perm, k)
		}
		l.nKeys += p.GrowKeys
		l.zipf.Grow(l.nKeys)
	}
	if p.Reshuffle {
		for j := len(l.perm) - 1; j > 0; j-- {
			k := l.rng.Intn(j + 1)
			l.perm[j], l.perm[k] = l.perm[k], l.perm[j]
		}
	}
}

// populate fills keys [from, to) with fresh values, allocating buckets
// as the range reaches them. Charged to the clock outside any request.
func (l *Loop) populate(from, to int) {
	for key := from; key < to; key++ {
		l.m.Push()
		b := key / bucketSize
		if l.m.RefIsNil(l.dir, b) {
			bh := l.m.Alloc(l.bucketType, bucketSize)
			l.m.SetRef(l.dir, b, bh)
		}
		l.writeValue(key)
		l.m.Pop()
	}
}

// doRead looks the key up and touches its payload (first and last word).
func (l *Loop) doRead(key int) {
	bh := l.m.GetRef(l.dir, key/bucketSize)
	vh := l.m.GetRef(bh, key%bucketSize)
	if vh != gc.NilHandle {
		n := l.m.Length(vh)
		_ = l.m.GetData(vh, 0)
		if n > 1 {
			_ = l.m.GetData(vh, n-1)
		}
	}
}

// doWrite replaces the key's value with a fresh allocation; the old
// value becomes floating garbage for the collector to find.
func (l *Loop) doWrite(key int) {
	l.writeValue(key)
}

// writeValue allocates a new value for key and installs it. Caller must
// hold an open scope.
func (l *Loop) writeValue(key int) {
	length := valueWordsMin + l.rng.Intn(valueWordsMax-valueWordsMin+1)
	vh := l.m.Alloc(l.valType, length)
	l.writeSeq++
	fill := length
	if fill > 4 {
		fill = 4
	}
	for w := 0; w < fill; w++ {
		l.m.SetData(vh, w, dataWord(key, l.writeSeq, w))
	}
	if length > fill {
		l.m.SetData(vh, length-1, dataWord(key, l.writeSeq, length-1))
	}
	bh := l.m.GetRef(l.dir, key/bucketSize)
	l.m.SetRef(bh, key%bucketSize, vh)
}

// dataWord derives a value payload word deterministically from its
// provenance, so the end-of-run fingerprint pins the exact write history.
func dataWord(key int, seq uint32, w int) uint32 {
	x := uint32(key)*2654435761 ^ seq*40503 ^ uint32(w)*97
	x ^= x >> 15
	return x
}

// finish fingerprints the live store (charged reads, after the last
// request, so no latency is affected) — the identity that flat vs
// sharded replays must agree on.
func (l *Loop) finish() {
	if l.finished {
		return
	}
	l.finished = true
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	for key := 0; key < l.nKeys; key++ {
		l.m.Push()
		bh := l.m.GetRef(l.dir, key/bucketSize)
		vh := l.m.GetRef(bh, key%bucketSize)
		if vh == gc.NilHandle {
			mix(0)
		} else {
			n := l.m.Length(vh)
			mix(uint64(n))
			mix(uint64(l.m.GetData(vh, 0)))
			if n > 1 {
				mix(uint64(l.m.GetData(vh, n-1)))
			}
		}
		l.m.Pop()
	}
	l.checksum = h
}
