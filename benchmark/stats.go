package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty); it
// sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// windows is how many equal slices of time a run is cut into; the
// reference kernel's speed is taken per slice (ref.go).
const windows = 12

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles as Python's
// statistics.quantiles(xs, n=4) gives them — the figure the benchmark
// driver holds against a metric's bound.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quart(3) - quart(1)) / math.Abs(m)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is (max-min)/median, the figure printed beside every repeated
// metric.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / math.Abs(m)
}

// worseBy returns by what share of base the value got worse in the
// metric's direction (negative = better).
func worseBy(m metricSpec, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	d := (value - base) / math.Abs(base)
	if m.Better == "higher" {
		return -d
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
