package main

import (
	"math"
	"sort"
	"time"
)

// quantile interpolates the q-quantile of xs (0 ≤ q ≤ 1) without
// modifying it; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the first quartile, median and third quartile
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method, extrapolating at the ends), which is how the spread
// of a metric across runs is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentiles holds the 50th, 95th and 99th latency percentiles, in
// milliseconds, of each slice or phase of a run. Their medians over the
// slices keep a stall of a shared host in the slices it falls in, while a
// daemon that is slower throughout moves every slice.
type percentiles struct{ p50, p95, p99 []float64 }

// add records one slice's latencies.
func (p *percentiles) add(lat []time.Duration) {
	ms := millis(lat)
	p.p50 = append(p.p50, quantile(ms, 0.5))
	p.p95 = append(p.p95, quantile(ms, 0.95))
	p.p99 = append(p.p99, quantile(ms, 0.99))
}

// slice returns the k-th of n consecutive slices of xs of equal length.
func slice[T any](xs []T, k, n int) []T { return xs[k*len(xs)/n : (k+1)*len(xs)/n] }

// sliceRate is the rate of a closed loop's requests that finished at the
// given times, from the first to the last of them.
func sliceRate(done []time.Duration) float64 {
	return float64(len(done)-1) / (done[len(done)-1] - done[0]).Seconds()
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
