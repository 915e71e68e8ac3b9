package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples, in milliseconds. It sorts samples in place.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(samples[i])
}

func median(samples []time.Duration) float64 { return quantile(samples, 0.5) }

// mean is the mean of the samples in milliseconds.
func mean(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return ms(sum) / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat returns the median of xs (the mean of the middle pair
// for an even count). It sorts xs in place.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timed runs fn n times and returns the per-call durations, stopping
// at the first error.
func timed(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return out, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
