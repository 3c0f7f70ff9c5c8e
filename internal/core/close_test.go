package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestSessionCloseRacesPuts hardens the server's hottest shutdown path:
// producer goroutines Put/PutBatch full tilt while Close lands mid-stream.
// Every producer must observe either a clean accept or the documented
// terminal error — never a panic, a hang, or a non-terminal error — and
// an accepted put must never be the last event (Close drains or reports).
func TestSessionCloseRacesPuts(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			p, ev, _ := sessionProgram()
			s, err := p.Start(context.Background(), Options{
				Strategy: strat, Threads: 4, IngressRing: 64, Quiet: true})
			if err != nil {
				t.Fatal(err)
			}
			const producers = 6
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						n := int64(g*1_000_000 + i)
						var err error
						if i%3 == 0 {
							err = s.PutBatch(
								tuple.New(ev, tuple.Int(n)),
								tuple.New(ev, tuple.Int(n+500_000)))
						} else {
							err = s.Put(tuple.New(ev, tuple.Int(n)))
						}
						if err != nil {
							if !errors.Is(err, ErrSessionClosed) {
								t.Errorf("producer %d: non-terminal error %v", g, err)
							}
							return
						}
					}
				}(g)
			}
			// Let the producers collide with a live drain, then close.
			time.Sleep(20 * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Errorf("Close = %v", err)
			}
			close(stop)
			wg.Wait()
			// After Close every ingestion surface reports the terminal state.
			if err := s.Put(tuple.New(ev, tuple.Int(-1))); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("Put after Close = %v, want ErrSessionClosed", err)
			}
			if err := s.PutBatch(tuple.New(ev, tuple.Int(-2))); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("PutBatch after Close = %v, want ErrSessionClosed", err)
			}
			if err := s.Quiesce(context.Background()); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("Quiesce after Close = %v, want ErrSessionClosed", err)
			}
		})
	}
}

// TestSessionDoubleClose: Close is documented idempotent — a second (and
// concurrent) Close returns the same terminal error, nil for a clean stop.
func TestSessionDoubleClose(t *testing.T) {
	p, ev, _ := sessionProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tuple.New(ev, tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	const closers = 8
	errs := make(chan error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("concurrent Close = %v, want nil after clean stop", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after Close = %v, want nil", err)
	}
}

// TestSessionCloseUnblocksFullRing: producers waiting for room in a full
// ingress are released by every way a session ends — Close, cancellation
// of the ctx given to Start, a rule panic — each with that ending's error,
// even while the coordinator is still inside a rule body; and once the
// session is gone no goroutine is left behind.
func TestSessionCloseUnblocksFullRing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		end   func(s *Session, cancel context.CancelFunc, release chan<- bool)
		match func(error) bool
	}{
		{"close", func(s *Session, _ context.CancelFunc, _ chan<- bool) { go s.Close() },
			func(err error) bool { return errors.Is(err, ErrSessionClosed) }},
		{"ctx", func(_ *Session, cancel context.CancelFunc, _ chan<- bool) { cancel() },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panic", func(_ *Session, _ context.CancelFunc, release chan<- bool) { release <- true },
			func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "rule park on Event(0) panicked: released to panic")
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := NewProgram()
			ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
				[]tuple.OrderEntry{tuple.Lit("Event")})
			entered := make(chan struct{})
			release := make(chan bool, 1)
			p.Rule("park", ev, func(_ *Ctx, tp *tuple.Tuple) {
				if tp.Int("n") != 0 {
					return
				}
				close(entered)
				if <-release {
					panic("released to panic")
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const ring = 8
			s, err := p.Start(ctx, Options{Strategy: exec.Sequential, Quiet: true, IngressRing: ring})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(tuple.New(ev, tuple.Int(0))); err != nil {
				t.Fatal(err)
			}
			<-entered // the coordinator is parked inside the rule
			fill := make([]*tuple.Tuple, ring)
			for i := range fill {
				fill[i] = tuple.New(ev, tuple.Int(int64(i+1)))
			}
			if err := s.PutBatch(fill...); err != nil {
				t.Fatal(err)
			}
			const producers = 4
			errs := make(chan error, producers)
			for g := 0; g < producers; g++ {
				go func(g int) { errs <- s.Put(tuple.New(ev, tuple.Int(int64(100+g)))) }(g)
			}
			tc.end(s, cancel, release)
			deadline := time.After(5 * time.Second)
			for g := 0; g < producers; g++ {
				select {
				case err := <-errs:
					if !tc.match(err) {
						t.Errorf("producer waiting for room returned %v", err)
					}
				case <-deadline:
					t.Fatalf("%d of %d producers still waiting for room 5s after the session ended", producers-g, producers)
				}
			}
			select {
			case release <- false: // let the parked rule return
			default: // the panic case already released it
			}
			s.Close()
			for runtime.NumGoroutine() > before {
				select {
				case <-deadline:
					t.Fatalf("%d goroutines before the session, %d after", before, runtime.NumGoroutine())
				default:
					runtime.Gosched()
				}
			}
		})
	}
}

// TestCloseAndQuiesceDuringFannedOutStep: Close and Quiesce issued while a
// step is spread over the pool — coordinator and workers all inside rule
// bodies — return once the step lets them, and leave no goroutine behind.
// The run's clock ticks a millisecond per reading, so the measured gate
// opens after the first inline chunk; the bodies park on a channel, so the
// test decides when the step ends. No sleeps: every wait is on an event.
func TestCloseAndQuiesceDuringFannedOutStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()

	p := NewProgram()
	work := p.Table("Work", []tuple.Column{{Name: "i", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Work")})
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	p.Rule("park", work, func(c *Ctx, _ *tuple.Tuple) {
		// The inline probe (slot 0, before the fan-out) passes straight
		// through; every firing of the fanned-out rest parks.
		if c.slot == 0 && c.run.stats.FannedSteps == 0 {
			return
		}
		once.Do(func() { close(entered) })
		<-release
	})
	for i := int64(0); i < 64; i++ {
		p.Put(tuple.New(work, tuple.Int(i)))
	}
	r, err := p.NewRun(Options{Threads: 4, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	var clock int64
	r.now = func() int64 { clock += int64(time.Millisecond); return clock }
	s, err := r.startSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	<-entered // the step is fanned out and stuck in its bodies
	quiesced, closed := make(chan error, 1), make(chan error, 1)
	go func() { quiesced <- s.Quiesce(context.Background()) }()
	go func() { closed <- s.Close() }()
	for s.gate() == nil { // Close has been issued once the gate reports it
		runtime.Gosched()
	}
	close(release)

	if err := <-closed; err != nil {
		t.Errorf("Close = %v", err)
	}
	// Quiesce raced Close: it saw the fixpoint or the closed session.
	if err := <-quiesced; err != nil && !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Quiesce = %v", err)
	}
	if st := s.Stats(); st.Steps != 1 || st.FannedSteps != 1 {
		t.Errorf("steps = %d, fanned = %d, want one fanned-out step", st.Steps, st.FannedSteps)
	}
	// Close joined the coordinator and shut the pool down; give the exited
	// goroutines their last instructions, then count.
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("%d goroutines before, %d after Close", before, runtime.NumGoroutine())
		default:
			runtime.Gosched()
		}
	}
}
