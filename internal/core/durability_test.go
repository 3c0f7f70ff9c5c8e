package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

func durableOpts(fs wal.FS, ckptEvery int) Options {
	return Options{
		Quiet: true,
		Durability: &DurabilityOptions{
			FS:              fs,
			Identity:        "test-session",
			CheckpointEvery: ckptEvery,
		},
	}
}

// sortedIDs extracts column 0 of every tuple, sorted — a strategy- and
// store-order-independent view of a table for parity comparison.
func sortedIDs(ts []*tuple.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.Field(0).AsInt()
	}
	slices.Sort(out)
	return out
}

func TestDurableSessionCheckpointAndRecover(t *testing.T) {
	fs := wal.NewMemFS()
	p, ev, out := sessionProgram()
	s, err := p.Start(context.Background(), durableOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	info, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 100 {
		t.Fatalf("checkpoint covers seq %d, want 100", info.Seq)
	}
	if info.Tuples != 200 { // Event + Out
		t.Fatalf("checkpoint holds %d tuples, want 200", info.Tuples)
	}
	st, ok := s.WALStats()
	if !ok || st.CheckpointSeq != 100 {
		t.Fatalf("wal stats = %+v, ok=%v", st, ok)
	}
	wantOut := sortedIDs(snapshot(t, s, out))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process: fresh program over the same log directory.
	p2, ev2, out2 := sessionProgram()
	s2, err := p2.Start(context.Background(), durableOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil || rec.CheckpointSeq != 100 || rec.CheckpointTuples != 200 {
		t.Fatalf("recovery info = %+v", rec)
	}
	if err := s2.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sortedIDs(snapshot(t, s2, out2)); !slices.Equal(got, wantOut) {
		t.Fatalf("recovered Out differs: got %d tuples, want %d", len(got), len(wantOut))
	}
	// The recovered session keeps working — and keeps logging.
	if err := s2.Put(tuple.New(ev2, tuple.Int(1000))); err != nil {
		t.Fatal(err)
	}
	if err := s2.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(snapshot(t, s2, out2)); got != 101 {
		t.Fatalf("Out has %d tuples after post-recovery put, want 101", got)
	}
}

// rendered renders ts row by row, for comparing tables across programs
// whose schemas are different objects.
func rendered(ts []*tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// TestCheckpointKeepsStoreOrder: a checkpoint writes each table in its
// store's Scan order and recovery restores it in that order, so columnar
// tables fed three quiesced batches of permuted events scan after a
// restart exactly as they did before it.
func TestCheckpointKeepsStoreOrder(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	opts := durableOpts(fs, 0)
	opts.StorePlan = gamma.StorePlan{"Event": "columnar", "Out": "columnar"}
	p, ev, out := sessionProgram()
	s, err := p.Start(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		for i := b * 20; i < (b+1)*20; i++ {
			if err := s.Put(tuple.New(ev, tuple.Int(int64(i*7%60)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	wantEv, wantOut := rendered(snapshot(t, s, ev)), rendered(snapshot(t, s, out))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	p2, ev2, out2 := sessionProgram()
	s2, err := p2.Start(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec == nil || rec.CheckpointTuples != 120 || rec.Replayed != 0 {
		t.Fatalf("recovery info = %+v, want all 120 rows from the checkpoint", rec)
	}
	for _, tb := range []struct {
		name      string
		got, want []string
	}{{"Event", rendered(snapshot(t, s2, ev2)), wantEv}, {"Out", rendered(snapshot(t, s2, out2)), wantOut}} {
		if len(tb.got) != len(tb.want) {
			t.Fatalf("recovered %s has %d rows, want %d", tb.name, len(tb.got), len(tb.want))
		}
		for i := range tb.want {
			if tb.got[i] != tb.want[i] {
				t.Fatalf("recovered %s row %d is %s, want %s", tb.name, i, tb.got[i], tb.want[i])
			}
		}
	}
}

// TestScanRowsMatchesScan: on every store kind, gamma.ScanRows yields the
// rows Scan visits, in the same order, and stops when its callback does.
func TestScanRowsMatchesScan(t *testing.T) {
	_, _, accSchema := accProgram(0)
	for _, spec := range kindSpecs(t, accSchema) {
		t.Run(spec, func(t *testing.T) {
			p, _, acc := accProgram(64)
			run, _ := quiescedCtx(t, p, Options{StorePlan: gamma.StorePlan{"Acc": spec}})
			st := run.Gamma().Table(acc)
			var want, got []string
			st.Scan(func(t *tuple.Tuple) bool {
				want = append(want, t.String())
				return true
			})
			gamma.ScanRows(st, func(row []tuple.Value) bool {
				got = append(got, tuple.New(acc, row...).String())
				return true
			})
			if len(want) != 64 || !slices.Equal(got, want) {
				t.Fatalf("ScanRows yielded %v,\nScan visited %v", got, want)
			}
			visits := 0
			gamma.ScanRows(st, func([]tuple.Value) bool {
				visits++
				return visits < 3
			})
			if visits != 3 {
				t.Errorf("ScanRows went on for %d rows after its callback stopped at 3", visits-3)
			}
		})
	}
}

// shortStore is a tree store whose row visitor yields one row fewer than
// Len declares: a store that breaks the checkpoint's row-count contract.
type shortStore struct{ gamma.Store }

func (s shortStore) ScanRows(fn func([]tuple.Value) bool) {
	left := s.Len() - 1
	gamma.ScanRows(s.Store, func(row []tuple.Value) bool {
		left--
		return left >= 0 && fn(row)
	})
}

// TestCheckpointRowCountGuard: a table whose visitor yields fewer rows
// than its Len fails the checkpoint, and no checkpoint file is published.
func TestCheckpointRowCountGuard(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	p, ev, _ := sessionProgram()
	p.GammaHint("Out", func(s *tuple.Schema) gamma.Store { return shortStore{gamma.NewTreeStore(s)} })
	s, err := p.Start(ctx, durableOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(ctx); err == nil || !strings.Contains(err.Error(), "yielded 9 rows, declared 10") {
		t.Fatalf("checkpoint over a short visitor: err = %v, want a row-count mismatch", err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") {
			t.Errorf("a failed checkpoint left %s behind", n)
		}
	}
	if st, _ := s.WALStats(); st.CheckpointSeq != 0 || st.LastCheckpointBytes != 0 {
		t.Errorf("a failed checkpoint moved the stats: %+v", st)
	}
}

// TestRecoverFromWALOnly: no checkpoint was ever written, so recovery is a
// pure replay of the log through the put path.
func TestRecoverFromWALOnly(t *testing.T) {
	fs := wal.NewMemFS()
	p, ev, out := sessionProgram()
	s, err := p.Start(context.Background(), durableOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := sortedIDs(snapshot(t, s, out))
	s.Close()

	p2, _, out2 := sessionProgram()
	s2, err := p2.Start(context.Background(), durableOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil || rec.Replayed != 50 || rec.CheckpointSeq != 0 {
		t.Fatalf("recovery info = %+v, want 50 replayed and no checkpoint", rec)
	}
	if err := s2.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sortedIDs(snapshot(t, s2, out2)); !slices.Equal(got, want) {
		t.Fatalf("replayed Out differs from original")
	}
}

// TestAutoCheckpointCadence: CheckpointEvery advances the durable
// watermark without any explicit Checkpoint call.
func TestAutoCheckpointCadence(t *testing.T) {
	fs := wal.NewMemFS()
	p, ev, _ := sessionProgram()
	s, err := p.Start(context.Background(), durableOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(tuple.New(ev, tuple.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is written at the quiescent boundary Quiesce observed
	// or the one after it; nudge once to be deterministic.
	if _, err := s.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, _ := s.WALStats()
	if st.CheckpointSeq != 20 {
		t.Fatalf("durable watermark at %d, want 20", st.CheckpointSeq)
	}
}

// TestCloseRacingInflightPutsKeepsWatermarkQuiesced is the satellite
// regression: Close racing live producers, WAL enabled, under -race. The
// durable watermark must never pass the last quiesced boundary, the WAL
// tail must be flushed by Close, and recovery must land on a consistent
// fixpoint of a prefix of the input — Out exactly doubling the recovered
// Event set, never a half-applied step.
func TestCloseRacingInflightPutsKeepsWatermarkQuiesced(t *testing.T) {
	for round := 0; round < 5; round++ {
		fs := wal.NewMemFS()
		p, ev, _ := sessionProgram()
		s, err := p.Start(context.Background(), durableOpts(fs, 1))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Put(tuple.New(ev, tuple.Int(int64(g*1_000_000+i)))); err != nil {
						return // session closed under us: expected
					}
				}
			}(g)
		}
		// Let the producers overlap some real work, then close mid-flight.
		for i := 0; i < 200; i++ {
			s.Put(tuple.New(ev, tuple.Int(int64(5_000_000+i))))
		}
		closeErr := s.Close()
		close(stop)
		wg.Wait()
		if closeErr != nil {
			t.Fatalf("close: %v", closeErr)
		}

		// The watermark rule: whatever checkpoint exists covers a quiesced
		// boundary, i.e. no more than what the closed log holds durable.
		st, ok := s.WALStats()
		if !ok {
			t.Fatal("wal stats missing")
		}
		if st.CheckpointSeq > st.DurableSeq {
			t.Fatalf("durable watermark %d passed the flushed tail %d", st.CheckpointSeq, st.DurableSeq)
		}

		// Recovery consistency: Out == 2×Event over the recovered prefix.
		p2, _, _ := sessionProgram()
		s2, err := p2.Start(context.Background(), durableOpts(fs, 0))
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		if err := s2.Quiesce(context.Background()); err != nil {
			t.Fatal(err)
		}
		evGot := sortedIDs(snapshot(t, s2, p2.Schema("Event")))
		outGot := sortedIDs(snapshot(t, s2, p2.Schema("Out")))
		if len(evGot) != len(outGot) {
			t.Fatalf("round %d: recovered %d events but %d outputs", round, len(evGot), len(outGot))
		}
		if uint64(len(evGot)) != st.DurableSeq {
			t.Fatalf("round %d: recovered %d events, flushed tail said %d", round, len(evGot), st.DurableSeq)
		}
		s2.Close()
	}
}

func TestDurabilityOptionsValidated(t *testing.T) {
	p, _, _ := sessionProgram()
	_, err := p.Start(context.Background(), Options{Quiet: true, Durability: &DurabilityOptions{}})
	if err == nil || !strings.Contains(err.Error(), "one of Dir or FS") {
		t.Fatalf("want validation error, got %v", err)
	}
	_, err = p.Start(context.Background(), Options{Quiet: true,
		Durability: &DurabilityOptions{FS: wal.NewMemFS(), CheckpointEvery: -1}})
	if err == nil || !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Fatalf("want validation error, got %v", err)
	}
}

func TestCheckpointWithoutDurabilityRefused(t *testing.T) {
	p, _, _ := sessionProgram()
	s, err := p.Start(context.Background(), Options{Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Checkpoint(context.Background()); err == nil {
		t.Fatal("checkpoint on a non-durable session must error")
	}
}

// TestWALRecordsAcceptanceOrder: the log holds external tuples in the
// order PutBatch accepted them, batches whole and unsorted, not in the
// engine's causal or storage order.
func TestWALRecordsAcceptanceOrder(t *testing.T) {
	fs := wal.NewMemFS()
	p, ev, _ := sessionProgram()
	entered, release := make(chan struct{}), make(chan struct{})
	p.Rule("park", ev, func(_ *Ctx, tp *tuple.Tuple) {
		if tp.Int("n") == 0 {
			close(entered)
			<-release
		}
	})
	opts := durableOpts(fs, 0)
	opts.Threads = 4
	s, err := p.Start(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tuple.New(ev, tuple.Int(0))); err != nil {
		t.Fatal(err)
	}
	<-entered // later batches queue behind the parked coordinator
	want := []int64{0}
	for _, batch := range [][]int64{{5, 3, 9}, {1}, {8, 2, 7, 4}} {
		ts := make([]*tuple.Tuple, len(batch))
		for i, n := range batch {
			ts[i] = tuple.New(ev, tuple.Int(n))
		}
		if err := s.PutBatch(ts...); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	close(release)
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, rec, err := wal.Open(wal.Options{FS: fs, Identity: "test-session",
		Resolve: func(table string) *tuple.Schema { return p.tables[table] }})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	got := make([]int64, len(rec.Tail))
	for i, tp := range rec.Tail {
		got[i] = tp.Int("n")
	}
	if !slices.Equal(got, want) {
		t.Errorf("WAL order %v, want acceptance order %v", got, want)
	}
}
