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
	snap := snapshot(t, s, out)
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

// TestSessionConcurrentIngressParity: concurrent producers feeding one
// session must quiesce on the Gamma state a lone producer reaches under
// Sequential, for all three strategies, and the absorbed count must cover
// every event.
func TestSessionConcurrentIngressParity(t *testing.T) {
	const producers = 8
	const perProducer = 400
	spec, _ := runIngressWorkload(t, Options{Strategy: exec.Sequential, Quiet: true}, 1, producers*perProducer)
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			got, st := runIngressWorkload(t, Options{
				Strategy: strat, Threads: 4, IngressRing: 256, Quiet: true,
			}, producers, perProducer)
			if len(got) != len(spec) {
				t.Fatalf("Out has %d tuples, want %d", len(got), len(spec))
			}
			for i := range got {
				if got[i] != spec[i] {
					t.Fatalf("snapshot divergence at %d: %q, spec %q", i, got[i], spec[i])
				}
			}
			if len(st.ShardAbsorbed) != 1 || st.ShardAbsorbed[0] != producers*perProducer {
				t.Errorf("ShardAbsorbed = %v, want [%d]", st.ShardAbsorbed, producers*perProducer)
			}
		})
	}
}

// TestIngressBacklogCapacityIsTheBound: the capacity IngressBacklog reports
// — the number serve's admission fraction is applied to — is the
// configured Options.IngressRing before and after the first Put, whatever
// the thread count.
func TestIngressBacklogCapacityIsTheBound(t *testing.T) {
	for _, threads := range []int{1, 4} {
		p, ev, _ := sessionProgram()
		s, err := p.Start(context.Background(), Options{Threads: threads, IngressRing: 2, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		_, before := s.IngressBacklog()
		if err := s.Put(tuple.New(ev, tuple.Int(1))); err != nil {
			t.Fatal(err)
		}
		_, after := s.IngressBacklog()
		if before != 2 || after != 2 {
			t.Errorf("Threads %d: capacity %d before the first Put, %d after, want 2 both times", threads, before, after)
		}
		if err := s.Quiesce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
