package exec_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
)

// TestParseStrategyRoundTrip: the menu is exactly the three strategies,
// every canonical name parses to a strategy whose String() spells it back,
// and every strategy's String() is on the menu.
func TestParseStrategyRoundTrip(t *testing.T) {
	names := exec.StrategyNames()
	if want := []string{"auto", "sequential", "forkjoin"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("StrategyNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		s, err := exec.ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", name, err)
		}
		if s.String() != name {
			t.Errorf("ParseStrategy(%q).String() = %q", name, s.String())
		}
	}
	for i, s := range []exec.Strategy{exec.Auto, exec.Sequential, exec.ForkJoin} {
		if s.String() != names[i] {
			t.Errorf("Strategy(%d).String() = %q, want %q", i, s.String(), names[i])
		}
		if _, err := exec.New(s, nil); err != nil {
			t.Errorf("New(%v, nil): %v", s, err)
		}
	}
	if _, err := exec.New(exec.Strategy(len(names)), nil); err == nil {
		t.Errorf("New(Strategy(%d)) built a loop for a strategy off the menu", len(names))
	}
}

// TestParseStrategyUnknown: unknown values must error (no silent Auto
// fallback) and the message must list every legal name, since that is
// what the CLI tools print before exiting. The names of the deleted ring
// executor are unknown like any other.
func TestParseStrategyUnknown(t *testing.T) {
	for _, bad := range []string{"bogus", "Sequential", "fork join", "automatic", "pipelined", "pipeline", "disruptor"} {
		_, err := exec.ParseStrategy(bad)
		if err == nil {
			t.Fatalf("ParseStrategy(%q) = nil error, want rejection", bad)
		}
		for _, name := range exec.StrategyNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseStrategy(%q) error %q does not list %q", bad, err, name)
			}
		}
	}
}

// TestChunkGrain: the partition must cover every index, target ~4 chunks
// per worker, and degrade to per-tuple chunks for tiny batches.
func TestChunkGrain(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
	}{
		{0, 4}, {1, 4}, {3, 4}, {16, 4}, {17, 4}, {103, 4}, {1030, 4},
		{1024, 8}, {5, 1}, {100, 0},
	} {
		g := exec.ChunkGrain(tc.n, tc.workers)
		if g < 1 {
			t.Fatalf("ChunkGrain(%d, %d) = %d < 1", tc.n, tc.workers, g)
		}
		if tc.n == 0 {
			continue
		}
		chunks := (tc.n + g - 1) / g
		workers := tc.workers
		if workers < 1 {
			workers = 1
		}
		if chunks > 4*workers {
			t.Errorf("ChunkGrain(%d, %d) = %d yields %d chunks, want <= %d",
				tc.n, tc.workers, g, chunks, 4*workers)
		}
		// The chunks must tile [0, n) exactly.
		covered := 0
		for lo := 0; lo < tc.n; lo += g {
			hi := lo + g
			if hi > tc.n {
				hi = tc.n
			}
			covered += hi - lo
		}
		if covered != tc.n {
			t.Errorf("ChunkGrain(%d, %d): chunks cover %d indices", tc.n, tc.workers, covered)
		}
	}
}
