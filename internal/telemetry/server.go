package telemetry

// ServerObserver feeds a Run's flight recorder with one event per served
// request. It satisfies server.Observer; like hook emission it is
// allocation-free and never advances the clock, so an observed run
// follows the exact same cost timeline as a blind one.
type ServerObserver struct{ run *Run }

// ServerObserver returns the run's request observer.
func (r *Run) ServerObserver() *ServerObserver {
	r.server.run = r
	return &r.server
}

// Request records one served request (server.Observer).
func (o *ServerObserver) Request(kind, phase, key int, start, latency, pauseCost float64) {
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
