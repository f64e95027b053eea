package main

import (
	"math"
	"sort"
	"time"

	"turnstile/internal/workload"
)

// The estimators. Every round repeats identical, deterministic work, so a
// repeated item (one message of one app version, one deploy of one app)
// is timed by its minimum across rounds, the low-noise estimator
// harness.MeasureApp uses for service time. Work that differs per round
// (the cold-deploy corpus) is summarised per round and reported as the
// median over rounds.

// pct returns the p-quantile (0..1) of xs by the repository's rank rule
// (workload.Percentile), 0 when xs is empty; xs is not modified.
func pct(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return workload.Percentile(s, p)
}

// median is pct(xs, 0.5).
func median(xs []float64) float64 { return pct(xs, 0.5) }

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// minInto folds one round's samples into the running per-item minimum:
// acc is nil before the first round.
func minInto(acc, round []float64) []float64 {
	if acc == nil {
		return append([]float64(nil), round...)
	}
	for i, v := range round {
		if v < acc[i] {
			acc[i] = v
		}
	}
	return acc
}

// timeIt returns how long fn took.
func timeIt(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

// us and ms convert a duration to float microseconds and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
