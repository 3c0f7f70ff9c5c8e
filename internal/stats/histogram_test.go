package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero: count=%d p50=%d max=%d mean=%f",
			h.Count(), h.Quantile(0.5), h.Max(), h.Mean())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below histSubCount land in unit buckets: quantiles are exact.
	var h Histogram
	for v := int64(0); v < histSubCount; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != histSubCount-1 {
		t.Errorf("p100 = %d, want %d", got, histSubCount-1)
	}
	if got := h.Max(); got != histSubCount-1 {
		t.Errorf("max = %d, want %d", got, histSubCount-1)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Every reconstructed quantile must be within the documented ~3%
	// (2^-histSubBits) relative error of the true order statistic.
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~9 decades: exercises many octaves.
		v := int64(math.Exp(rng.Float64() * 21))
		vals = append(vals, v)
		h.Observe(v)
	}
	sortInt64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 1.0/histSubCount+1e-9 {
			t.Errorf("q=%g: got %d want %d (rel err %.4f > %.4f)",
				q, got, want, relErr, 1.0/histSubCount)
		}
	}
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// The representative value of a bucket must map back to that bucket.
	for idx := 0; idx < histBuckets; idx++ {
		v := histValue(idx)
		if got := histIndex(v); got != idx {
			t.Fatalf("histIndex(histValue(%d)) = %d", idx, got)
		}
	}
	if histIndex(-5) != 0 {
		t.Errorf("negative values must clamp to bucket 0")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	// Every quantile collapses onto the one observation; the mean equals it.
	var single Histogram
	single.Observe(12)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != 12 {
			t.Errorf("single-observation Quantile(%v) = %d, want 12", q, got)
		}
	}
	if single.Mean() != 12 {
		t.Errorf("single-observation mean = %f, want 12", single.Mean())
	}
}
