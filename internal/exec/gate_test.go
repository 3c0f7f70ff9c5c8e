package exec

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/forkjoin"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestShouldFanOut pins the measured gate as a pure function of the step's
// own progress: fired units, nanoseconds they took, units remaining.
func TestShouldFanOut(t *testing.T) {
	for _, tc := range []struct {
		fired     int
		elapsed   int64
		remaining int
		want      bool
	}{
		{8, 0, 1 << 20, false},            // a clock that has not moved proves nothing
		{8, 4_000, 56, false},             // serve-paced: 64 tuples at 0.5 µs
		{56, 28_000, 8, false},            // … and still cheap near the end
		{8, 8_000_000, 472, true},         // matmult: 480 rows at 1 ms
		{8, 4_000, 175_000, true},         // pvwatts: cheap firings, but 87 ms of them
		{8, 40_000, 100, true},            // 100 left at 5 µs: exactly the threshold
		{8, 40_000, 99, false},            // one fewer: just under
		{1016, 508_000, 8, false},         // a long cheap step with a short tail
		{24, 2_400_000, 4, false},         // heavy firings, but too few left to pay
		{24, 2_400_000, 5, true},          // 5 × 100 µs reaches it
		{1 << 20, 1 << 40, 1 << 20, true}, // large values do not overflow
	} {
		if got := shouldFanOut(tc.fired, tc.elapsed, tc.remaining); got != tc.want {
			t.Errorf("shouldFanOut(fired=%d, elapsed=%dns, remaining=%d) = %v, want %v",
				tc.fired, tc.elapsed, tc.remaining, got, tc.want)
		}
	}
}

// fire is one recorded FireBatch call: the slot and the live indices fired.
type fire struct{ slot, lo, hi int }

// scriptHost is a Host whose clock is the test's: every fired tuple
// advances it by cost nanoseconds, so the gate sees exactly the step the
// test describes and no real time enters any assertion.
type scriptHost struct {
	steps []int // live batch size of each step still to run
	cost  int64 // clock nanoseconds per fired tuple

	mu     sync.Mutex
	clock  int64
	live   []*tuple.Tuple
	fires  []fire
	sealed []int
	fanned int
	ended  int
}

func (h *scriptHost) NextBatch() ([]*tuple.Tuple, error) {
	if len(h.steps) == 0 {
		return nil, nil
	}
	h.live = make([]*tuple.Tuple, h.steps[0])
	for i := range h.live {
		h.live[i] = new(tuple.Tuple)
	}
	h.steps = h.steps[1:]
	return h.live, nil
}

func (h *scriptHost) BeginStep(b []*tuple.Tuple) []*tuple.Tuple { return b }

func (h *scriptHost) FireBatch(ts []*tuple.Tuple, slot int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := -1
	for i := range h.live {
		if h.live[i] == ts[0] {
			lo = i
		}
	}
	h.fires = append(h.fires, fire{slot, lo, lo + len(ts)})
	h.clock += h.cost * int64(len(ts))
}

func (h *scriptHost) Now() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.clock
}

func (h *scriptHost) FanOut() { h.fanned++ }
func (h *scriptHost) SealSlot(slot int) {
	h.mu.Lock()
	h.sealed = append(h.sealed, slot)
	h.mu.Unlock()
}
func (h *scriptHost) EndStep()   { h.ended++ }
func (h *scriptHost) Err() error { return nil }

// roundRobinPool is a Pool that runs on the calling goroutine and deals
// index i to slot 1 + i mod size, so a fan-out's partition is a fixed
// function of its input.
type roundRobinPool struct{ size int }

func (p roundRobinPool) Size() int { return p.size }
func (p roundRobinPool) ForWorker(n, _ int, body func(slot, i int), done func(slot int)) {
	for i := 0; i < n; i++ {
		body(1+i%p.size, i)
	}
	for s := 1; s <= p.size && s <= n; s++ {
		done(s)
	}
}

// newLoop is New for tests: the strategy is one of the three, so an error
// is a test failure.
func newLoop(t testing.TB, s Strategy, pool Pool) *Loop {
	t.Helper()
	e, err := New(s, pool)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func drainScript(t *testing.T, e *Loop, h *scriptHost) {
	t.Helper()
	steps := len(h.steps)
	if err := e.Drain(h); err != nil {
		t.Fatal(err)
	}
	if h.ended != steps {
		t.Fatalf("EndStep ran %d times for %d steps", h.ended, steps)
	}
}

// covered checks that the recorded fires partition [0, n) exactly.
func covered(t *testing.T, fires []fire, n int) {
	t.Helper()
	seen := make([]int, n)
	for _, f := range fires {
		for i := f.lo; i < f.hi; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("live tuple %d fired %d times", i, c)
		}
	}
}

// TestGateStaysInline: a step of cheap firings never leaves the
// coordinator. It fires in doubling chunks on slot 0, in live order — the
// concatenation is exactly the one call Sequential makes — and neither the
// pool nor SealSlot is touched.
func TestGateStaysInline(t *testing.T) {
	for _, n := range []int{1, 8, 9, 64, 1000} {
		h := &scriptHost{steps: []int{n}, cost: 500} // 0.5 µs per firing
		drainScript(t, newLoop(t, Auto, roundRobinPool{4}), h)
		var want []fire
		for lo, chunk := 0, probeChunk; lo < n; lo, chunk = lo+chunk, chunk*2 {
			want = append(want, fire{0, lo, min(lo+chunk, n)})
		}
		if !reflect.DeepEqual(h.fires, want) {
			t.Errorf("n=%d: fired %v, want %v", n, h.fires, want)
		}
		if h.fanned != 0 || len(h.sealed) != 0 {
			t.Errorf("n=%d: a cheap step fanned out (%d) or sealed from a worker (%v)", n, h.fanned, h.sealed)
		}

		seq := &scriptHost{steps: []int{n}, cost: 500}
		drainScript(t, newLoop(t, Sequential, nil), seq)
		if want := []fire{{0, 0, n}}; !reflect.DeepEqual(seq.fires, want) {
			t.Errorf("n=%d: sequential fired %v, want %v", n, seq.fires, want)
		}
	}
}

// TestGateFansOutHeavyStep: the first inline chunk proves the step heavy,
// and everything after it goes to the pool in ChunkGrain chunks, every
// participant sealing its own slot inside the same ForWorker call.
func TestGateFansOutHeavyStep(t *testing.T) {
	const n, workers = 480, 2
	h := &scriptHost{steps: []int{n}, cost: 1_000_000} // 1 ms per firing
	drainScript(t, newLoop(t, Auto, roundRobinPool{workers}), h)
	if h.fanned != 1 {
		t.Fatalf("FanOut called %d times, want 1", h.fanned)
	}
	if want := (fire{0, 0, probeChunk}); h.fires[0] != want {
		t.Fatalf("first fire = %v, want the inline probe %v", h.fires[0], want)
	}
	grain := ChunkGrain(n-probeChunk, workers)
	for i, f := range h.fires[1:] {
		lo := probeChunk + i*grain
		if want := (fire{1 + i%workers, lo, min(lo+grain, n)}); f != want {
			t.Fatalf("fan-out chunk %d = %v, want %v", i, f, want)
		}
	}
	covered(t, h.fires, n)
	if want := []int{1, 2}; !reflect.DeepEqual(h.sealed, want) {
		t.Errorf("sealed slots %v, want %v", h.sealed, want)
	}
}

// TestGateOpensLate: a step whose firings turn out heavy only in aggregate
// stays inline while the rest is too short to pay, and fans out once the
// doubling chunks have shown enough.
func TestGateOpensLate(t *testing.T) {
	// 5 µs per firing: the rest reaches 500 µs only while ≥ 100 remain.
	for _, tc := range []struct{ n, inline int }{
		{100, 100}, // 92 left after the probe: stays inline to the end
		{108, 8},   // 100 left after the probe: opens at once
		{2000, 8},
	} {
		h := &scriptHost{steps: []int{tc.n}, cost: 5_000}
		drainScript(t, newLoop(t, Auto, roundRobinPool{2}), h)
		inline := 0
		for _, f := range h.fires {
			if f.slot == 0 {
				inline += f.hi - f.lo
			}
		}
		if inline != tc.inline {
			t.Errorf("n=%d: %d tuples fired inline, want %d (fires %v)", tc.n, inline, tc.inline, h.fires)
		}
		covered(t, h.fires, tc.n)
	}
}

// TestGateForced: ForkJoin is the same loop with the gate forced open (no
// probe, no clock: every multi-chunk step fans out whatever it costs), and
// Auto without a pool is Sequential.
func TestGateForced(t *testing.T) {
	h := &scriptHost{steps: []int{64, 1, 0, 64}, cost: 0}
	drainScript(t, newLoop(t, ForkJoin, roundRobinPool{2}), h)
	if h.fanned != 2 {
		t.Errorf("forced-open gate fanned %d of the two multi-chunk steps", h.fanned)
	}
	for _, f := range h.fires {
		if f.slot == 0 && f.hi-f.lo > 1 {
			t.Errorf("forced-open gate fired %v inline", f)
		}
	}

	h = &scriptHost{steps: []int{480}, cost: 1_000_000}
	drainScript(t, newLoop(t, Auto, nil), h)
	if want := []fire{{0, 0, 480}}; !reflect.DeepEqual(h.fires, want) || h.fanned != 0 {
		t.Errorf("no pool: fired %v (fanned %d), want %v", h.fires, h.fanned, want)
	}
}

// spinHost is the break-even benchmark's host: steps of `width` firings,
// each a busy loop of `per`, and nothing else — no Gamma, no puts — so the
// only thing inline and fan-out differ by is the pool round trip. It times
// the fire phase of each step itself (BeginStep to EndStep) and then keeps
// the coordinator busy for `boundary`, long enough for the runtime to put
// the idle workers' threads to sleep, as a real step boundary does.
type spinHost struct {
	batch    []*tuple.Tuple
	steps    int
	per      time.Duration
	boundary time.Duration
	t0       time.Time
	fire     time.Duration
}

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func (h *spinHost) NextBatch() ([]*tuple.Tuple, error) {
	if h.steps == 0 {
		return nil, nil
	}
	h.steps--
	return h.batch, nil
}
func (h *spinHost) BeginStep(b []*tuple.Tuple) []*tuple.Tuple {
	h.t0 = time.Now()
	return b
}
func (h *spinHost) FireBatch(ts []*tuple.Tuple, _ int) {
	for range ts {
		spin(h.per)
	}
}
func (h *spinHost) Now() int64   { return 0 }
func (h *spinHost) FanOut()      {}
func (h *spinHost) SealSlot(int) {}
func (h *spinHost) EndStep() {
	h.fire += time.Since(h.t0)
	spin(h.boundary)
}
func (h *spinHost) Err() error { return nil }

// BenchmarkFanOutBreakEven measures what fanOutMinNanos is set from: one
// step of 8 firings, fired inline against fanned out over a parked pool of
// 2 workers, at about 40, 250 and 800 µs of step work. The figure to read
// is fire-ns/step; ns/op adds the 300 µs boundary both sides idle through.
func BenchmarkFanOutBreakEven(b *testing.B) {
	const width = 8
	pool := forkjoin.NewPool(2)
	defer pool.Shutdown()
	for _, per := range []time.Duration{5 * time.Microsecond, 30 * time.Microsecond, 100 * time.Microsecond} {
		for _, mode := range []struct {
			name string
			loop *Loop
		}{
			{"inline", newLoop(b, Sequential, nil)},
			{"fanout", newLoop(b, ForkJoin, pool)},
		} {
			b.Run(fmt.Sprintf("work=%v/%s", width*per, mode.name), func(b *testing.B) {
				h := &spinHost{batch: make([]*tuple.Tuple, width), steps: b.N,
					per: per, boundary: 300 * time.Microsecond}
				b.ResetTimer()
				if err := mode.loop.Drain(h); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(h.fire.Nanoseconds())/float64(b.N), "fire-ns/step")
			})
		}
	}
}
