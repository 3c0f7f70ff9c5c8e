package stats

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: values below 2^histSubBits land in unit-wide
// buckets; above that, each power-of-two octave is split into 2^histSubBits
// linear sub-buckets, bounding the relative error of any reconstructed
// quantile to 2^-histSubBits (~3%). The same log-linear scheme HdrHistogram
// uses, sized for int64 nanosecond latencies.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	histBuckets  = (64 - histSubBits) * histSubCount
)

// Histogram is a concurrent log-linear latency histogram. Observe is
// lock-free (one atomic add per recording plus sum/max upkeep), so load
// generator clients and server handlers can record into a shared instance
// without coordination; quantiles are reconstructed from the buckets with
// ≤ ~3% relative error. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	k := bits.Len64(u) - 1 // 2^k <= u < 2^(k+1), k >= histSubBits
	sub := int(u>>uint(k-histSubBits)) & (histSubCount - 1)
	return (k-histSubBits+1)*histSubCount + sub
}

// histValue returns the midpoint of bucket idx — the value reported for
// every observation that landed there.
func histValue(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	exp := idx/histSubCount + histSubBits - 1
	sub := int64(idx%histSubCount) | histSubCount
	lo := sub << uint(exp-histSubBits)
	width := int64(1) << uint(exp-histSubBits)
	return lo + width/2
}

// Observe records one value (typically a latency in nanoseconds).
func (h *Histogram) Observe(v int64) {
	h.counts[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile q in [0,1] — e.g. 0.5, 0.99,
// 0.999 — with ≤ ~3% relative error, or 0 when the histogram is empty.
// Concurrent Observes may or may not be included.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(n-1)) + 1 // 1-based rank of the target observation
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return histValue(i)
		}
	}
	return h.max.Load()
}

// LatencySummary is a flat digest of a latency histogram — what the
// service's /metrics renders per request kind.
type LatencySummary struct {
	Count     int64
	MeanNanos float64
	P50Nanos  int64
	P99Nanos  int64
	P999Nanos int64
	MaxNanos  int64
}

// Summary digests the histogram into its p50/p99/p999 quantiles.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:     h.Count(),
		MeanNanos: h.Mean(),
		P50Nanos:  h.Quantile(0.50),
		P99Nanos:  h.Quantile(0.99),
		P999Nanos: h.Quantile(0.999),
		MaxNanos:  h.Max(),
	}
}
