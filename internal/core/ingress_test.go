package core

import (
	"context"
	"sync"
	"testing"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// runIngressWorkload drives a session of sessionProgram with `producers`
// concurrent goroutines and returns the quiesced Out snapshot as sorted
// strings plus the run stats.
func runIngressWorkload(t *testing.T, opts Options, producers, perProducer int) ([]string, *RunStats) {
	t.Helper()
	p, ev, out := sessionProgram()
	s, err := p.Start(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := s.Put(tuple.New(ev, tuple.Int(int64(g*perProducer+i)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot(out)
	lines := make([]string, len(snap))
	for i, tp := range snap {
		lines[i] = tp.String()
	}
	stats := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sortStrings(lines)
	return lines, stats
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// TestSessionShardedIngressParity: the same concurrent-producer workload
// through a sharded ingress (4 lanes) and the degenerate single-ring
// ingress (1 lane) must quiesce on identical Gamma state, for all three
// strategies — lane routing must never change what is computed. Also
// checks the per-shard absorption accounting covers every event.
func TestSessionShardedIngressParity(t *testing.T) {
	const producers = 8
	const perProducer = 400
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			sharded, shardedStats := runIngressWorkload(t, Options{
				Strategy: strat, Threads: 4, IngressRing: 256, IngressShards: 4, Quiet: true,
			}, producers, perProducer)
			single, singleStats := runIngressWorkload(t, Options{
				Strategy: strat, Threads: 4, IngressRing: 256, IngressShards: 1, Quiet: true,
			}, producers, perProducer)
			if len(sharded) != producers*perProducer {
				t.Fatalf("sharded session: Out has %d tuples, want %d", len(sharded), producers*perProducer)
			}
			for i := range sharded {
				if sharded[i] != single[i] {
					t.Fatalf("snapshot divergence at %d: sharded %q, single %q", i, sharded[i], single[i])
				}
			}
			for name, st := range map[string]*RunStats{"sharded": shardedStats, "single": singleStats} {
				want := map[string]int{"sharded": 4, "single": 1}[name]
				if st.IngressShards != want {
					t.Errorf("%s IngressShards = %d, want %d", name, st.IngressShards, want)
				}
				var absorbed int64
				for _, n := range st.ShardAbsorbed {
					absorbed += n
				}
				if absorbed != int64(producers*perProducer) {
					t.Errorf("%s ShardAbsorbed sums to %d, want %d", name, absorbed, producers*perProducer)
				}
			}
		})
	}
}

// TestValidateRejectsBadIngressShards: the shard count knob gets the same
// actionable validation as the ring capacity.
func TestValidateRejectsBadIngressShards(t *testing.T) {
	p, _, _ := sessionProgram()
	for _, bad := range []int{-1, 3, 6} {
		if err := p.Validate(Options{IngressShards: bad}); err == nil {
			t.Errorf("Validate accepted IngressShards %d", bad)
		}
	}
	if err := p.Validate(Options{IngressShards: 4}); err != nil {
		t.Errorf("Validate rejected IngressShards 4: %v", err)
	}
}
