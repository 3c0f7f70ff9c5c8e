package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestWaitChangeSubscriptionSemantics is the subscription-contract test:
// a subscriber registered mid-run (after some history has already been
// absorbed) sees exactly the quiesced states after registration — one
// wake-up per changing boundary, in order, with no missed and no phantom
// notifications — across all three strategies, under -race.
func TestWaitChangeSubscriptionSemantics(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			p, ev, _ := sessionProgram()
			s, err := p.Start(context.Background(), Options{
				Strategy: strat, Threads: 4, Quiet: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			bg := context.Background()

			// Pre-subscription history the subscriber must not be woken for.
			if err := s.PutBatch(tuple.New(ev, tuple.Int(1)), tuple.New(ev, tuple.Int(2))); err != nil {
				t.Fatal(err)
			}
			if err := s.Quiesce(bg); err != nil {
				t.Fatal(err)
			}
			since, err := s.TableVersion("Out")
			if err != nil {
				t.Fatal(err)
			}
			if since == 0 {
				t.Fatal("Out version still 0 after a changing quiescence")
			}

			// No change since registration: the wait must time out rather
			// than deliver a phantom notification for the old history.
			short, cancel := context.WithTimeout(bg, 100*time.Millisecond)
			if _, err := s.WaitChange(short, "Out", since); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("phantom notification: WaitChange = %v, want deadline", err)
			}
			cancel()

			// Each subsequent changing boundary wakes the subscriber exactly
			// once, with consecutive generations — none missed, none doubled.
			for i := 0; i < 4; i++ {
				// Arm the waiter before the change lands so the wake-up path
				// (not just the fast re-check) is exercised.
				type res struct {
					v   int64
					err error
				}
				got := make(chan res, 1)
				go func(since int64) {
					v, err := s.WaitChange(bg, "Out", since)
					got <- res{v, err}
				}(since)
				if err := s.Put(tuple.New(ev, tuple.Int(int64(100+i)))); err != nil {
					t.Fatal(err)
				}
				if err := s.Quiesce(bg); err != nil {
					t.Fatal(err)
				}
				r := <-got
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.v != since+1 {
					t.Fatalf("change %d woke at generation %d, want %d", i, r.v, since+1)
				}
				since = r.v
				if v, _ := s.TableVersion("Out"); v != since {
					t.Fatalf("TableVersion = %d after wake at %d", v, since)
				}
			}

			// A duplicate put leaves Gamma unchanged: the boundary must not
			// bump the generation, so the subscriber stays asleep.
			if err := s.Put(tuple.New(ev, tuple.Int(100))); err != nil {
				t.Fatal(err)
			}
			if err := s.Quiesce(bg); err != nil {
				t.Fatal(err)
			}
			short, cancel = context.WithTimeout(bg, 100*time.Millisecond)
			if v, err := s.WaitChange(short, "Out", since); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("duplicate put notified: v=%d err=%v", v, err)
			}
			cancel()
		})
	}
}

// TestWaitChangeCoalesces: a subscriber that polls less often than the
// session quiesces still converges — it observes the latest generation
// (changes coalesce) and never a generation that did not happen.
func TestWaitChangeCoalesces(t *testing.T) {
	p, ev, _ := sessionProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bg := context.Background()
	base, _ := s.TableVersion("Out")
	const boundaries = 5
	for i := 0; i < boundaries; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		if err := s.Quiesce(bg); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.WaitChange(bg, "Out", base)
	if err != nil {
		t.Fatal(err)
	}
	if v != base+boundaries {
		t.Fatalf("coalesced wake at %d, want %d", v, base+boundaries)
	}
}

// TestWaitChangeTerminal: unknown tables error up front; close and ctx
// cancellation both end a pending wait with the documented errors.
func TestWaitChangeTerminal(t *testing.T) {
	p, _, _ := sessionProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TableVersion("Nope"); err == nil {
		t.Error("TableVersion(Nope) = nil error")
	}
	if _, err := s.WaitChange(context.Background(), "Nope", 0); err == nil {
		t.Error("WaitChange(Nope) = nil error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := s.WaitChange(ctx, "Out", 0)
		cancelled <- err
	}()
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled wait = %v", err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := s.WaitChange(context.Background(), "Out", 0)
		closed <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; !errors.Is(err, ErrSessionClosed) {
		t.Errorf("wait across Close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.WaitChange(context.Background(), "Out", 0); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("wait after Close = %v, want ErrSessionClosed", err)
	}
}

// TestTableVersionsNoGamma: tables excluded from Gamma have no queryable
// state, so their generation must stay pinned at zero.
func TestTableVersionsNoGamma(t *testing.T) {
	p, ev, out := sessionProgram()
	s, err := p.Start(context.Background(), Options{
		Strategy: exec.Sequential, Quiet: true, NoGamma: []string{"Out"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(tuple.New(ev, tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.TableVersion("Event"); v != 1 {
		t.Errorf("Event version = %d, want 1", v)
	}
	if v, _ := s.TableVersion("Out"); v != 0 {
		t.Errorf("noGamma Out version = %d, want 0", v)
	}
	_ = out
}
