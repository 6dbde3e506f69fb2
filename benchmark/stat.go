package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so the spreads this program prints are the ones the driver computes.
// With fewer than two values all three are the single value (or 0).
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return values[0], values[0], values[0]
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// geomean is the geometric mean of the positive values; zero or negative
// values are skipped (a pause-free run has MaxPause 0).
func geomean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
