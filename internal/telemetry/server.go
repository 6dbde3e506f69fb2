package telemetry

// Server metric names (internal/server request traffic). The latency
// histogram is log-2 bucketed like every Run histogram — good for
// dashboards and merges; SLO verdicts use the server package's exact
// quantiles instead (see metrics_test.go for the pinned error bound).
const (
	MetricRequests       = "server_requests_total"
	MetricRequestLatency = "server_request_latency_cost_units"
	MetricSLOViolations  = "server_slo_violations_total"
)

// ServerObserver feeds a Run's registry and flight recorder with
// per-request measurements. It satisfies server.Observer; like hook
// emission it is allocation-free and never advances the clock, so an
// observed run follows the exact same cost timeline as a blind one.
type ServerObserver struct {
	run        *Run
	requests   *Counter
	latency    *Histogram
	violations *Counter
}

// ServerObserver lazily registers the server metric set on the run's
// registry and returns the observer (idempotent per Run).
func (r *Run) ServerObserver() *ServerObserver {
	if r.server == nil {
		r.server = &ServerObserver{
			run:        r,
			requests:   r.reg.NewCounter(MetricRequests, "server requests served"),
			latency:    r.reg.NewHistogram(MetricRequestLatency, "per-request latency on the cost-unit clock"),
			violations: r.reg.NewCounter(MetricSLOViolations, "SLO targets missed by the run"),
		}
	}
	return r.server
}

// Request records one served request (server.Observer).
func (o *ServerObserver) Request(kind, phase, key int, start, latency, pauseCost float64) {
	o.requests.Inc()
	o.latency.Observe(latency)
	paused := uint64(0)
	if pauseCost > 0 {
		paused = 1
	}
	o.run.rec.Emit(Event{
		Kind: EvRequest, Time: start + latency, Dur: latency,
		A: uint64(kind) | paused<<8,
		B: uint64(key),
		C: uint64(phase),
		D: uint64(pauseCost),
	})
}

// AddViolations counts failed SLO targets into the metric.
func (o *ServerObserver) AddViolations(n int) {
	if n > 0 {
		o.violations.Add(uint64(n))
	}
}
