package server

// LatencyBuffer is the loop's latency buffer, for benchmarks outside the
// package that restore the arrival order a report sorts away.
func LatencyBuffer(l *Loop) []float64 { return l.lats }
