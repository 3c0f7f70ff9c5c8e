package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile for a tail percentile, or 0 when the sample
// does not have ten values beyond it: a tail read off fewer is noise.
func tailQuantile(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10 {
		return 0
	}
	return quantile(xs, q)
}

// shareWithin is the fraction of attempted operations whose latency is at
// most limit; operations that never produced a latency count as misses.
func shareWithin(latencies []float64, attempted int, limit float64) float64 {
	if attempted == 0 {
		return 0
	}
	n := 0
	for _, l := range latencies {
		if l <= limit {
			n++
		}
	}
	return float64(n) / float64(attempted)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
