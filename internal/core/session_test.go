package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// sessionProgram builds a two-table fan-out: every external Event(n) fires
// a rule that records Out(n, n*2). Events carry no ordering constraints
// against each other, so any injection interleaving must converge on the
// same fixpoint.
func sessionProgram() (*Program, *tuple.Schema, *tuple.Schema) {
	p := NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event")})
	out := p.Table("Out",
		[]tuple.Column{{Name: "n", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Out")})
	p.Order("Event", "Out")
	p.Rule("double", ev, func(c *Ctx, t *tuple.Tuple) {
		c.PutNew(out, tuple.Int(t.Int("n")), tuple.Int(2*t.Int("n")))
	})
	return p, ev, out
}

// TestSessionConcurrentProducers is the satellite coverage: N goroutines
// Put while the executor is mid-drain, for all three strategies, under
// -race. Every distinct event must fire exactly once and the session must
// reach quiescence with the full Out relation.
func TestSessionConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 500
	for _, strat := range []exec.Strategy{exec.Sequential, exec.ForkJoin, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			p, ev, out := sessionProgram()
			s, err := p.Start(context.Background(), Options{
				Strategy: strat, Threads: 4, IngressRing: 64, Quiet: true})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						n := int64(g*perProducer + i)
						if i%5 == 0 {
							if err := s.PutBatch(tuple.New(ev, tuple.Int(n))); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						if err := s.Put(tuple.New(ev, tuple.Int(n))); err != nil {
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
			const total = producers * perProducer
			if got := len(snapshot(t, s, out)); got != total {
				t.Errorf("Out has %d tuples, want %d", got, total)
			}
			if got := s.Stats().Tables["Event"].Triggers.Load(); got != total {
				t.Errorf("Event triggers = %d, want %d", got, total)
			}
			if got := s.Run().DeltaLen(); got != 0 {
				t.Errorf("DeltaLen = %d after Quiesce, want 0", got)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionQuiesceCoversInitialPuts: Quiesce with no external puts must
// still wait for the seeded program to drain.
func TestSessionQuiesceCoversInitialPuts(t *testing.T) {
	p, ship := shipProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(snapshot(t, s, ship)); got != 4 {
		t.Errorf("Ship has %d tuples, want 4", got)
	}
}

// TestSessionQueryAndSnapshot reads quiesced Gamma state through the
// public read surface and checks query statistics are attributed.
func TestSessionQueryAndSnapshot(t *testing.T) {
	p, ev, out := sessionProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(0); i < 10; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got int64 = -1
	if err := s.Query(out, gamma.Query{Prefix: []tuple.Value{tuple.Int(7)}}, func(tp *tuple.Tuple) bool {
		got = tp.Int("v")
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Errorf("Query(Out, n=7) v = %d, want 14", got)
	}
	if n := s.Stats().Tables["Out"].Queries.Load(); n != 1 {
		t.Errorf("Out queries = %d, want 1", n)
	}
	if got := len(snapshot(t, s, ev)); got != 10 {
		t.Errorf("Snapshot(Event) = %d tuples, want 10", got)
	}
}

// TestSessionContextCancelStopsRunawayProgram: a program that puts forever
// is stoppable through the Start ctx alone — the redesign's answer to
// "today a runaway program is only stoppable via MaxSteps".
func TestSessionContextCancelStopsRunawayProgram(t *testing.T) {
	p := NewProgram()
	tick := p.Table("Tick", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("n")})
	p.Rule("forever", tick, func(c *Ctx, t *tuple.Tuple) {
		c.PutNew(tick, tuple.Int(t.Int("n")+1))
	})
	p.Put(tuple.New(tick, tuple.Int(0)))
	ctx, cancel := context.WithCancel(context.Background())
	s, err := p.Start(ctx, Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cancel()
	err = s.Quiesce(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Quiesce after cancel = %v, want context.Canceled", err)
	}
	if err := s.Put(tuple.New(tick, tuple.Int(-1))); !errors.Is(err, context.Canceled) {
		t.Errorf("Put on cancelled session = %v, want context.Canceled", err)
	}
	if err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("Close after cancel = %v, want context.Canceled", err)
	}
}

// TestSessionCtxCancelAtQuiescenceIsClean: cancelling a session that is
// parked at its fixpoint with nothing pending is a shutdown, not a
// failure — a Quiesce that already succeeded must not be retroactively
// contradicted by an error from Close.
func TestSessionCtxCancelAtQuiescenceIsClean(t *testing.T) {
	p, _ := shipProgram()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := p.Start(ctx, Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-s.loopDone
	if err := s.Err(); err != nil {
		t.Errorf("Err after idle cancel = %v, want nil", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after idle cancel = %v, want nil", err)
	}
	if err := s.Quiesce(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Quiesce after idle cancel = %v, want ErrSessionClosed", err)
	}
}

// TestSessionActionPanicIsContained: external actions run bare on the
// coordinator goroutine; a panic there must surface as a session error,
// not crash the process.
func TestSessionActionPanicIsContained(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	p.Action(a, func(*Run, *tuple.Tuple) { panic("action boom") })
	p.Put(tuple.New(a, tuple.Int(1)))
	_, err := p.Execute(Options{Strategy: exec.Sequential})
	if err == nil || !strings.Contains(err.Error(), "action boom") {
		t.Fatalf("Execute with panicking action = %v, want contained panic error", err)
	}
}

// TestSessionDeadlineStopsRunawayProgram covers the deadline flavour.
func TestSessionDeadlineStopsRunawayProgram(t *testing.T) {
	p := NewProgram()
	tick := p.Table("Tick", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("n")})
	p.Rule("forever", tick, func(c *Ctx, t *tuple.Tuple) {
		c.PutNew(tick, tuple.Int(t.Int("n")+1))
	})
	p.Put(tuple.New(tick, tuple.Int(0)))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s, err := p.Start(ctx, Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Quiesce(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Quiesce = %v, want context.DeadlineExceeded", err)
	}
}

// TestSessionCloseIsTerminal: operations after Close report the closed
// state, and Close is idempotent.
func TestSessionCloseIsTerminal(t *testing.T) {
	p, ev, _ := sessionProgram()
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := s.Put(tuple.New(ev, tuple.Int(1))); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Put after Close = %v, want ErrSessionClosed", err)
	}
	if err := s.Quiesce(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Quiesce after Close = %v, want ErrSessionClosed", err)
	}
}

// TestSessionRulePanicIsTerminal: a rule panic fails the session; Put and
// Quiesce surface it.
func TestSessionRulePanicIsTerminal(t *testing.T) {
	p := NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event")})
	p.Rule("boom", ev, func(c *Ctx, t *tuple.Tuple) {
		if t.Int("n") == 3 {
			panic("boom")
		}
	})
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(0); i < 5; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(i))); err != nil {
			break // already terminal: also fine
		}
	}
	err = s.Quiesce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Quiesce after rule panic = %v, want boom", err)
	}
}

// TestSessionPutUndeclaredTable: an undeclared table is an error on the
// producer side, not a panic on the coordinator.
func TestSessionPutUndeclaredTable(t *testing.T) {
	p, _, _ := sessionProgram()
	other := tuple.MustSchema("Other",
		[]tuple.Column{{Name: "x", Kind: tuple.KindInt}}, nil)
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(tuple.New(other, tuple.Int(1))); err == nil ||
		!strings.Contains(err.Error(), "not declared") {
		t.Errorf("Put(undeclared) = %v, want not-declared error", err)
	}
	if err := s.Put(nil); err == nil {
		t.Error("Put(nil) must error")
	}
}

// TestSessionRunStartsOnce: a Run backs at most one execution, whether via
// Session or Execute.
func TestSessionRunStartsOnce(t *testing.T) {
	p, _ := shipProgram()
	r, err := p.NewRun(Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(); err == nil || !strings.Contains(err.Error(), "already started") {
		t.Errorf("second Execute = %v, want already-started error", err)
	}
	if _, err := r.startSession(context.Background()); err == nil {
		t.Error("startSession on an executed run must error")
	}
}

// TestValidateRejectsBadKnobs covers Threads < 0 and IngressRing shape.
func TestValidateRejectsBadKnobs(t *testing.T) {
	p, _ := shipProgram()
	if _, err := p.NewRun(Options{Threads: -2}); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("Threads: -2 = %v, want negative-threads error", err)
	}
	for _, ring := range []int{-1, 3, 100} {
		if _, err := p.NewRun(Options{IngressRing: ring}); err == nil ||
			!strings.Contains(err.Error(), "power of two") {
			t.Errorf("IngressRing: %d = %v, want power-of-two error", ring, err)
		}
	}
	if _, err := p.NewRun(Options{IngressRing: 64, Strategy: exec.Sequential}); err != nil {
		t.Errorf("IngressRing: 64 = %v, want nil", err)
	}
}

// TestValidateUnknownTablesActionable: unknown NoDelta/NoGamma names name
// the declared tables, so the fix is in the message.
func TestValidateUnknownTablesActionable(t *testing.T) {
	p, _ := shipProgram()
	_, err := p.NewRun(Options{NoDelta: []string{"Nope"}})
	if err == nil || !strings.Contains(err.Error(), "declared: Ship") {
		t.Errorf("unknown -noDelta error = %v, want declared-table list", err)
	}
}

// TestValidateRejectsNoDeltaOnActionTable: actions fire only when a tuple
// leaves the Delta set, so -noDelta on a table with one (a PrintlnTable
// included) would silently drop its side effects; Validate refuses it and
// names the table and the reason.
func TestValidateRejectsNoDeltaOnActionTable(t *testing.T) {
	p := NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}}, nil)
	out := p.PrintlnTable("Println", nil)
	p.Rule("print", a, func(c *Ctx, t *tuple.Tuple) {
		c.Put(tuple.New(out, tuple.String_("line")))
	})
	p.Put(tuple.New(a, tuple.Int(1)))
	_, err := p.Execute(Options{Strategy: exec.Sequential, NoDelta: []string{"Println"}})
	if err == nil || !strings.Contains(err.Error(), "-noDelta Println: the table has an action") {
		t.Fatalf("-noDelta on a PrintlnTable: err = %v, want a refusal naming the table and its action", err)
	}
	if _, err := p.NewRun(Options{NoDelta: []string{"A"}}); err != nil {
		t.Errorf("-noDelta on a table without an action: %v", err)
	}
}

// TestValidateRejectsOrderbyKindConflicts: a Delta-tree level holds
// children of one kind, so two tables whose orderby lists can meet at a
// level with entries of different kinds are refused before the run, with
// both tables and both entries named, rather than panicking the
// coordinator at the first put that reaches the level.
func TestValidateRejectsOrderbyKindConflicts(t *testing.T) {
	seq, par, lit := tuple.Seq("v"), tuple.Par("v"), tuple.Lit
	cases := []struct {
		a, b []tuple.OrderEntry
		want []string // nil: the pair is legal
	}{
		{[]tuple.OrderEntry{seq}, []tuple.OrderEntry{lit("B")},
			[]string{"orderby of A entry 0 (seq v) conflicts with B entry 0 (B)"}},
		{[]tuple.OrderEntry{lit("L"), seq}, []tuple.OrderEntry{lit("L"), par},
			[]string{"A entry 1 (seq v)", "B entry 1 (par v)"}},
		{[]tuple.OrderEntry{par, lit("X")}, []tuple.OrderEntry{par, seq},
			[]string{"A entry 1 (X)", "B entry 1 (seq v)"}},
		{[]tuple.OrderEntry{lit("L1"), seq}, []tuple.OrderEntry{lit("L2"), par}, nil},
		{[]tuple.OrderEntry{lit("L")}, []tuple.OrderEntry{lit("L"), seq}, nil},
		{[]tuple.OrderEntry{seq, par}, []tuple.OrderEntry{seq, par}, nil},
		{nil, []tuple.OrderEntry{seq}, nil},
	}
	cols := []tuple.Column{{Name: "v", Kind: tuple.KindInt}}
	for _, c := range cases {
		p := NewProgram()
		p.Table("A", cols, c.a)
		p.Table("B", cols, c.b)
		err := p.Validate(Options{})
		if c.want == nil {
			if err != nil {
				t.Errorf("orderby %v / %v: %v, want nil", c.a, c.b, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("orderby %v / %v: Validate passed, want a kind conflict", c.a, c.b)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("orderby %v / %v: error %q missing %q", c.a, c.b, err, w)
			}
		}
	}
}

// TestSessionIngestionOverlapsExecution proves Put from a non-coordinator
// goroutine does not block on full quiescence: while the executor is busy
// inside a deliberately slow rule, a producer's Put must return. The slow
// rule handshakes via channels so the test is deterministic: the put
// happens strictly while the drain is mid-step.
func TestSessionIngestionOverlapsExecution(t *testing.T) {
	p := NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event")})
	inBody := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p.Rule("slow", ev, func(c *Ctx, t *tuple.Tuple) {
		once.Do(func() {
			close(inBody)
			<-release
		})
	})
	p.Put(tuple.New(ev, tuple.Int(0)))
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	<-inBody // the coordinator is now parked inside the first firing
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(tuple.New(ev, tuple.Int(1))) }()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked on a mid-drain executor: ingestion does not overlap execution")
	}
	close(release)
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(snapshot(t, s, ev)); got != 2 {
		t.Errorf("Event has %d tuples, want 2", got)
	}
}

// TestSessionBackpressure: a full ingress list gates producers instead of
// growing without bound, and absorbing events releases them.
func TestSessionBackpressure(t *testing.T) {
	p := NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event")})
	inBody := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p.Rule("slow", ev, func(c *Ctx, t *tuple.Tuple) {
		once.Do(func() {
			close(inBody)
			<-release
		})
	})
	p.Put(tuple.New(ev, tuple.Int(-1)))
	const ring = 8
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential, IngressRing: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	<-inBody
	// Fill the list while the coordinator is parked, then one more: that
	// publisher must gate until the coordinator absorbs.
	for i := 0; i < ring; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	gated := make(chan error, 1)
	go func() { gated <- s.Put(tuple.New(ev, tuple.Int(int64(ring)))) }()
	select {
	case <-gated:
		t.Fatal("Put into a full ingress list returned without backpressure")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-gated; err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(snapshot(t, s, ev)); got != ring+2 {
		t.Errorf("Event has %d tuples, want %d", got, ring+2)
	}
}

// TestSessionPutBatchLargerThanRing: one PutBatch bigger than the whole
// ingress bound must complete — it is accepted whole while the pending
// list is below the bound, rather than deadlocking on a list it can never
// fit into.
func TestSessionPutBatchLargerThanRing(t *testing.T) {
	p, ev, out := sessionProgram()
	const ring = 8
	s, err := p.Start(context.Background(), Options{Strategy: exec.Sequential, IngressRing: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err) // idle at quiescence before the oversized batch
	}
	const n = 5 * ring
	batch := make([]*tuple.Tuple, n)
	for i := range batch {
		batch[i] = tuple.New(ev, tuple.Int(int64(i)))
	}
	done := make(chan error, 1)
	go func() { done <- s.PutBatch(batch...) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PutBatch larger than the ingress bound deadlocked")
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(snapshot(t, s, out)); got != n {
		t.Errorf("Out has %d tuples, want %d", got, n)
	}
}

// TestSessionParityWithExecute: the same program reaches the same fixpoint
// whether tuples are initial puts under Execute or external puts into a
// Session — external input is just tuples (§3).
func TestSessionParityWithExecute(t *testing.T) {
	build := func() (*Program, *tuple.Schema, *tuple.Schema) { return sessionProgram() }
	const n = 100

	p1, ev1, out1 := build()
	for i := int64(0); i < n; i++ {
		p1.Put(tuple.New(ev1, tuple.Int(i)))
	}
	run, err := p1.Execute(Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}

	p2, ev2, out2 := build()
	s, err := p2.Start(context.Background(), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(0); i < n; i++ {
		if err := s.Put(tuple.New(ev2, tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := renderTable(t, func(fn func(*tuple.Tuple) bool) { run.Gamma().Table(out1).Scan(fn) })
	got := renderTable(t, func(fn func(*tuple.Tuple) bool) { s.Run().Gamma().Table(out2).Scan(fn) })
	if want != got {
		t.Errorf("Session and Execute fixpoints differ:\nexecute: %s\nsession: %s", want, got)
	}
}

func renderTable(t *testing.T, scan func(func(*tuple.Tuple) bool)) string {
	t.Helper()
	var rows []string
	scan(func(tp *tuple.Tuple) bool {
		rows = append(rows, tp.String())
		return true
	})
	return fmt.Sprint(rows)
}

// TestQueryCallbackMayPutAndQuiesce: Session.Query calls its callback on
// a snapshot of the matches, with no store lock held, so the callback may
// Put and then Quiesce, which waits for the coordinator to insert that put
// into the very table being read. When the callback ran inside
// Store.Select, the stores holding their read lock across the walk made
// that Quiesce wait out its deadline, and a walk that saw inserts ahead of
// it kept visiting the callback's own puts.
func TestQueryCallbackMayPutAndQuiesce(t *testing.T) {
	_, _, accSchema := accProgram(0)
	for _, spec := range kindSpecs(t, accSchema) {
		for _, strat := range []exec.Strategy{exec.Sequential, exec.Auto} {
			t.Run(spec+"/"+strat.String(), func(t *testing.T) {
				p, _, acc := accProgram(64) // 8 rows per key
				s, err := p.Start(context.Background(), Options{Strategy: strat,
					StorePlan: gamma.StorePlan{"Acc": spec}, Quiet: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Quiesce(context.Background()); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				visited := 0
				var cbErr error
				if err := s.Query(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(3)}}, func(a *tuple.Tuple) bool {
					visited++
					if cbErr = s.Put(tuple.New(acc, a.Get("k"), tuple.Int(a.Int("v")+1000))); cbErr == nil {
						cbErr = s.Quiesce(ctx)
					}
					return cbErr == nil
				}); err != nil {
					t.Fatal(err)
				}
				if cbErr != nil {
					t.Fatalf("Put then Quiesce inside the Query callback: %v", cbErr)
				}
				if visited != 8 {
					t.Errorf("callback saw %d tuples, want the 8 present before its puts", visited)
				}
				if got := len(snapshot(t, s, acc)); got != 64+8 {
					t.Errorf("Acc holds %d tuples, want %d", got, 64+8)
				}
			})
		}
	}
}

// snapshot is s.Snapshot that fails the test on an error.
func snapshot(t testing.TB, s *Session, sch *tuple.Schema) []*tuple.Tuple {
	t.Helper()
	rows, err := s.Snapshot(sch)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
