package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
)

var evSchema = tuple.MustSchema("ev", []tuple.Column{
	{Name: "id", Kind: tuple.KindInt, Key: true},
	{Name: "name", Kind: tuple.KindString},
	{Name: "score", Kind: tuple.KindFloat},
	{Name: "ok", Kind: tuple.KindBool},
}, nil)

// tagSchema is a second table, so batch records and checkpoints hold
// more than one frame.
var tagSchema = tuple.MustSchema("tag", []tuple.Column{
	{Name: "id", Kind: tuple.KindInt},
	{Name: "on", Kind: tuple.KindBool},
}, nil)

func testResolve(table string) *tuple.Schema {
	switch table {
	case "ev":
		return evSchema
	case "tag":
		return tagSchema
	}
	return nil
}

func ev(i int) *tuple.Tuple {
	return tuple.New(evSchema,
		tuple.Int(int64(i)),
		tuple.String_(fmt.Sprintf("payload-%d", i)),
		tuple.Float(float64(i)*1.5),
		tuple.Bool(i%2 == 0))
}

func evID(t *tuple.Tuple) int { return int(t.Field(0).AsInt()) }

// rowsSource is a checkpoint table section over tuples already in hand,
// visited through one reused row as a store's ScanRows visits its own.
func rowsSource(sch *tuple.Schema, rows []*tuple.Tuple) CheckpointSource {
	return CheckpointSource{Schema: sch, Rows: len(rows), Scan: func(fn func([]tuple.Value) bool) {
		row := make([]tuple.Value, sch.Arity())
		for _, t := range rows {
			for i := range row {
				row[i] = t.Field(i)
			}
			if !fn(row) {
				return
			}
		}
	}}
}

// sources re-expresses a decoded checkpoint's tables as the encoder's
// input, resolving each table's schema as recovery does.
func sources(c *Checkpoint) []CheckpointSource {
	var out []CheckpointSource
	for _, tb := range c.Tables {
		out = append(out, rowsSource(testResolve(tb.Name), tb.Rows))
	}
	return out
}

func testOpts(fs FS) Options {
	return Options{
		FS:            fs,
		Identity:      "tenant-a",
		GroupBytes:    1, // flush (and fsync) on every Append: deterministic crash points
		GroupInterval: time.Hour,
		SegmentBytes:  512, // rotate every few batches
		Resolve:       testResolve,
	}
}

// recoveredIDs returns the ids the recovered state covers: checkpoint rows
// plus replay tail, sorted.
func recoveredIDs(rec *Recovered) []int {
	var ids []int
	if rec.Checkpoint != nil {
		for _, tb := range rec.Checkpoint.Tables {
			for _, r := range tb.Rows {
				ids = append(ids, evID(r))
			}
		}
	}
	for _, r := range rec.Tail {
		ids = append(ids, evID(r))
	}
	slices.Sort(ids)
	return ids
}

// wantPrefix asserts ids == [1, 2, ..., n].
func wantPrefix(t *testing.T, ids []int, n int) {
	t.Helper()
	if len(ids) != n {
		t.Fatalf("recovered %d tuples, want prefix of length %d (ids=%v)", len(ids), n, ids)
	}
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("recovered ids %v: position %d is %d, want %d", ids, i, id, i+1)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, rec, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != nil || len(rec.Tail) != 0 || rec.DurableSeq != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}
	for i := 1; i <= 20; i += 2 {
		if err := l.Append([]*tuple.Tuple{ev(i), ev(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableSeq(); got != 20 {
		t.Fatalf("durable seq %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantPrefix(t, recoveredIDs(rec2), 20)
	if rec2.DurableSeq != 20 {
		t.Fatalf("recovered durable seq %d, want 20", rec2.DurableSeq)
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean close should truncate nothing, got %d bytes", rec2.TruncatedBytes)
	}
	// Replay order must be absorption order, not just the right set.
	for i, r := range rec2.Tail {
		if evID(r) != i+1 {
			t.Fatalf("tail[%d] = id %d, want %d", i, evID(r), i+1)
		}
	}
	// Field fidelity through the codec.
	r := rec2.Tail[6]
	if r.Field(1).AsString() != "payload-7" || r.Field(2).AsFloat() != 10.5 || r.Field(3).AsBool() {
		t.Fatalf("tuple 7 fields corrupted: %v", r)
	}
	// The new process appends where the old one stopped.
	if err := l2.Append([]*tuple.Tuple{ev(21)}); err != nil {
		t.Fatal(err)
	}
	if got := l2.DurableSeq(); got != 21 {
		t.Fatalf("durable seq after reopen append = %d, want 21", got)
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	fs := NewMemFS()
	o := testOpts(fs)
	o.GroupBytes = 1 << 20 // never flush on size
	l, _, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := l.Append([]*tuple.Tuple{ev(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("nothing flushed yet, durable seq = %d", got)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.GroupCommits != 1 {
		t.Fatalf("100 appends, one flush: got %d group commits", st.GroupCommits)
	}
	if st.DurableSeq != 100 {
		t.Fatalf("durable seq %d, want 100", st.DurableSeq)
	}
	l.Close()
}

// TestCheckpointEncodeInPlace: the checkpoint encoder writes its payload
// once, after a reserved frame head, into a buffer presized from the
// tables' fixed widths — so encoding 100k 1-int and 100k 2-int rows
// allocates at most twice the encoded size (appending to a growing slice
// and then copying the payload into its frame cost about 6.5 times) — and
// the bytes are those of encoding the payload first and framing a copy,
// with string columns (which grow the presized buffer) too.
func TestCheckpointEncodeInPlace(t *testing.T) {
	one := tuple.MustSchema("one", []tuple.Column{{Name: "a", Kind: tuple.KindInt}}, nil)
	two := tuple.MustSchema("two", []tuple.Column{{Name: "a", Kind: tuple.KindInt}, {Name: "b", Kind: tuple.KindInt}}, nil)
	const n = 100_000
	ones, twos := make([]*tuple.Tuple, n), make([]*tuple.Tuple, n)
	for i := range ones {
		ones[i] = tuple.New(one, tuple.Int(int64(i)))
		twos[i] = tuple.New(two, tuple.Int(int64(i)), tuple.Int(int64(-i)))
	}
	framedCopy := func(seq uint64, identity string, tables map[*tuple.Schema][]*tuple.Tuple, order ...*tuple.Schema) []byte {
		p := []byte(ckptMagic)
		p = binary.LittleEndian.AppendUint16(p, walVersion)
		p = binary.LittleEndian.AppendUint64(p, seq)
		p = appendString(p, identity)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(order)))
		for _, sch := range order {
			p = appendTableFrame(t, p, sch, tables[sch])
		}
		return appendFrame(nil, p)
	}
	srcs := []CheckpointSource{rowsSource(one, ones), rowsSource(two, twos)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf, err := encodeCheckpoint(7, "tenant", srcs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want := framedCopy(7, "tenant", map[*tuple.Schema][]*tuple.Tuple{one: ones, two: twos}, one, two)
	if !bytes.Equal(buf, want) {
		t.Fatalf("in-place encoding differs from the framed copy (%d vs %d bytes)", len(buf), len(want))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !testrace.Enabled && alloc > 2*uint64(len(buf)) {
		t.Errorf("encoding a %d-byte checkpoint allocated %d bytes (%.1fx), want <= 2x", len(buf), alloc, float64(alloc)/float64(len(buf)))
	}
	evs := []*tuple.Tuple{ev(1), ev(22), ev(333)}
	tags := []*tuple.Tuple{tag(4)}
	buf, err = encodeCheckpoint(9, "t", []CheckpointSource{rowsSource(evSchema, evs), rowsSource(tagSchema, tags)})
	if err != nil {
		t.Fatal(err)
	}
	if want := framedCopy(9, "t", map[*tuple.Schema][]*tuple.Tuple{evSchema: evs, tagSchema: tags}, evSchema, tagSchema); !bytes.Equal(buf, want) {
		t.Fatalf("in-place encoding with strings:\n%x\nwant\n%x", buf, want)
	}
}

func TestCheckpointCoversPrefix(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	var rows []*tuple.Tuple
	for i := 1; i <= 10; i++ {
		rows = append(rows, ev(i))
		if err := l.Append([]*tuple.Tuple{ev(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(10, []CheckpointSource{rowsSource(evSchema, rows)}); err != nil {
		t.Fatal(err)
	}
	buf, err := fs.ReadFile(ckptName(10))
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.LastCheckpointBytes != int64(len(buf)) || st.LastCheckpointElapsed <= 0 {
		t.Errorf("stats say the checkpoint took %v and %d bytes; the file has %d", st.LastCheckpointElapsed, st.LastCheckpointBytes, len(buf))
	}
	for i := 11; i <= 15; i++ {
		if err := l.Append([]*tuple.Tuple{ev(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, rec, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 10 {
		t.Fatalf("expected checkpoint at seq 10, got %+v", rec.Checkpoint)
	}
	if len(rec.Tail) != 5 || evID(rec.Tail[0]) != 11 {
		t.Fatalf("tail should be exactly seq 11..15, got %d tuples starting %v", len(rec.Tail), rec.Tail)
	}
	wantPrefix(t, recoveredIDs(rec), 15)
}

func TestCheckpointRejectsUndurableSeq(t *testing.T) {
	l, _, err := Open(testOpts(NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.WriteCheckpoint(5, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds durable seq") {
		t.Fatalf("checkpoint beyond the durable watermark must be refused, got %v", err)
	}
}

func TestCheckpointPruneKeepsTwo(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append([]*tuple.Tuple{ev(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := fs.List()
	var ck []string
	for _, n := range names {
		if _, ok := parseCkptName(n); ok {
			ck = append(ck, n)
		}
	}
	if len(ck) != 2 || ck[0] != ckptName(2) || ck[1] != ckptName(3) {
		t.Fatalf("want the two newest checkpoints kept, got %v", ck)
	}
}

// crashWorkload drives a fixed append+checkpoint script against l until it
// finishes or the log dies, returning how many appends were acknowledged.
func crashWorkload(l *Log) int {
	acked := 0
	var rows []*tuple.Tuple
	for i := 1; i <= 40; i++ {
		rows = append(rows, ev(i))
		if err := l.Append([]*tuple.Tuple{ev(i)}); err != nil {
			return acked
		}
		acked = i
		if i%10 == 0 {
			covered := l.DurableSeq()
			if err := l.WriteCheckpoint(covered,
				[]CheckpointSource{rowsSource(evSchema, rows[:covered])}); err != nil {
				return acked
			}
		}
	}
	return acked
}

// TestCrashMatrixEveryFsync is the core recovery property: for a power
// loss at EVERY fsync boundary of the workload, recovery from the durable
// image yields exactly the prefix 1..n for some n >= the acked count —
// acknowledged group commits are never lost, and nothing is ever invented
// or reordered.
func TestCrashMatrixEveryFsync(t *testing.T) {
	clean := NewFaultFS()
	l, _, err := Open(testOpts(clean))
	if err != nil {
		t.Fatal(err)
	}
	if got := crashWorkload(l); got != 40 {
		t.Fatalf("clean run acked %d, want 40", got)
	}
	l.Close()
	total := clean.Syncs()
	if total < 40 {
		t.Fatalf("workload only produced %d fsyncs", total)
	}

	for k := 1; k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("sync%03d", k), func(t *testing.T) {
			ffs := NewFaultFS()
			ffs.CrashAtSync(k)
			l, _, err := Open(testOpts(ffs))
			if err != nil {
				// Crash can land inside Open's own segment bootstrap.
				if !ffs.Crashed() {
					t.Fatal(err)
				}
				return
			}
			acked := crashWorkload(l)
			l.Close()
			if !ffs.Crashed() {
				t.Fatalf("crash point %d never fired", k)
			}

			l2, rec, err := Open(testOpts(ffs.Durable()))
			if err != nil {
				t.Fatalf("recovery after crash at sync %d: %v", k, err)
			}
			defer l2.Close()
			ids := recoveredIDs(rec)
			if len(ids) < acked {
				t.Fatalf("crash at sync %d lost acknowledged data: acked %d, recovered %d", k, acked, len(ids))
			}
			wantPrefix(t, ids, len(ids))
			if rec.DurableSeq != uint64(len(ids)) {
				t.Fatalf("durable seq %d disagrees with recovered prefix %d", rec.DurableSeq, len(ids))
			}
		})
	}
}

// TestTornWriteMatrix tears each write of the workload in half: the torn
// record must be cut at recovery, never half-applied.
func TestTornWriteMatrix(t *testing.T) {
	clean := NewFaultFS()
	l, _, err := Open(testOpts(clean))
	if err != nil {
		t.Fatal(err)
	}
	crashWorkload(l)
	l.Close()
	clean.mu.Lock()
	totalWrites := clean.writes
	clean.mu.Unlock()

	for k := 1; k <= totalWrites; k += 3 {
		for _, keep := range []int{0, 5, 17} {
			k, keep := k, keep
			t.Run(fmt.Sprintf("write%03d_keep%d", k, keep), func(t *testing.T) {
				ffs := NewFaultFS()
				ffs.TearWrite(k, keep)
				l, _, err := Open(testOpts(ffs))
				if err != nil {
					if !ffs.Crashed() {
						t.Fatal(err)
					}
					return
				}
				acked := crashWorkload(l)
				l.Close()
				if !ffs.Crashed() {
					t.Fatalf("tear point %d never fired", k)
				}
				_, rec, err := Open(testOpts(ffs.Durable()))
				if err != nil {
					t.Fatalf("recovery after torn write %d: %v", k, err)
				}
				ids := recoveredIDs(rec)
				if len(ids) < acked {
					t.Fatalf("torn write %d lost acknowledged data: acked %d, recovered %d", k, acked, len(ids))
				}
				wantPrefix(t, ids, len(ids))
			})
		}
	}
}

// TestDropWriteMatrix: a lying cache acks a write that never hits the
// medium. The workload's *next* fsync would normally persist it; since the
// drive dropped it, the bytes must simply be absent after recovery — an
// untruncated hole is impossible because the drop kills the process at the
// same write.
func TestDropWriteMatrix(t *testing.T) {
	for k := 1; k <= 60; k += 5 {
		k := k
		t.Run(fmt.Sprintf("write%03d", k), func(t *testing.T) {
			ffs := NewFaultFS()
			ffs.DropWrite(k)
			l, _, err := Open(testOpts(ffs))
			if err != nil {
				if !ffs.Crashed() {
					t.Fatal(err)
				}
				return
			}
			crashWorkload(l)
			l.Close()
			if !ffs.Crashed() {
				t.Skip("workload shorter than drop point")
			}
			_, rec, err := Open(testOpts(ffs.Durable()))
			if err != nil {
				t.Fatalf("recovery after dropped write %d: %v", k, err)
			}
			wantPrefix(t, recoveredIDs(rec), len(recoveredIDs(rec)))
		})
	}
}

func TestFailedFsyncIsTerminalAndLoud(t *testing.T) {
	ffs := NewFaultFS()
	o := testOpts(ffs)
	errCh := make(chan error, 1)
	o.OnError = func(err error) { errCh <- err }
	l, _, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailSync(3) // past Open's bootstrap, mid-workload
	acked := crashWorkload(l)
	if acked == 40 {
		t.Fatal("workload survived an injected fsync failure")
	}
	select {
	case err := <-errCh:
		if !strings.Contains(err.Error(), "injected fsync failure") {
			t.Fatalf("OnError got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("OnError never delivered the fsync failure")
	}
	if err := l.Append([]*tuple.Tuple{ev(99)}); err == nil {
		t.Fatal("append after terminal error must fail")
	}
	l.Close()
	// The disk is "dying", not dead: what reached it recovers.
	_, rec, err := Open(testOpts(ffs.Durable()))
	if err != nil {
		t.Fatal(err)
	}
	ids := recoveredIDs(rec)
	if len(ids) < acked {
		t.Fatalf("acked %d, recovered %d", acked, len(ids))
	}
	wantPrefix(t, ids, len(ids))
}

// TestBitFlipSealedSegmentRejected pins the tamper-evidence property: one
// flipped bit anywhere in a sealed (historical) segment makes recovery
// fail loudly with the exact segment, never silently drop or alter data.
func TestBitFlipSealedSegmentRejected(t *testing.T) {
	ffs := NewFaultFS()
	l, _, err := Open(testOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := l.Append([]*tuple.Tuple{ev(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("workload produced only %d segments; rotation threshold too high for this test", st.Segments)
	}
	seg := segName(2) // sealed, interior
	data, err := ffs.Durable().ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{1, int64(len(data) / 2), int64(len(data) - 2)} {
		mem := ffs.Durable()
		tampered := NewFaultFS()
		tampered.mem = mem
		if err := tampered.FlipBit(seg, off); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(testOpts(mem))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %s+%d: want CorruptError, got %v", seg, off, err)
		}
		if ce.Segment != seg {
			t.Fatalf("flip at %s+%d blamed segment %s", seg, off, ce.Segment)
		}
	}
}

// TestBitFlipFinalSegmentTruncates: damage in the final, unsealed segment
// is indistinguishable from a torn group commit, so it truncates there —
// still a valid covering prefix, never a wrong table.
func TestBitFlipFinalSegmentTruncates(t *testing.T) {
	ffs := NewFaultFS()
	o := testOpts(ffs)
	o.SegmentBytes = 1 << 20 // single segment
	ffs.CrashAtSync(25)      // die mid-workload so the final segment is unsealed
	l, _, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	crashWorkload(l)
	l.Close()
	mem := ffs.Durable()
	data, err := mem.ReadFile(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	tamperer := NewFaultFS()
	tamperer.mem = mem
	if err := tamperer.FlipBit(segName(1), int64(len(data)*3/4)); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(testOpts(mem))
	if err != nil {
		t.Fatalf("flip in unsealed tail must truncate, not fail: %v", err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("expected a truncated tail")
	}
	ids := recoveredIDs(rec)
	if len(ids) == 0 {
		t.Fatal("flip at 3/4 of the segment should leave a non-empty prefix")
	}
	wantPrefix(t, ids, len(ids))
}

// TestBitFlipNewestCheckpointFallsBack: a damaged checkpoint is skipped in
// favour of the previous one, with the WAL tail making up the difference.
func TestBitFlipNewestCheckpointFallsBack(t *testing.T) {
	ffs := NewFaultFS()
	l, _, err := Open(testOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if got := crashWorkload(l); got != 40 {
		t.Fatalf("clean run acked %d", got)
	}
	l.Close()
	st := l.Stats()
	if st.CheckpointSeq != 40 {
		t.Fatalf("newest checkpoint at %d, want 40", st.CheckpointSeq)
	}
	mem := ffs.Durable()
	tamperer := NewFaultFS()
	tamperer.mem = mem
	if err := tamperer.FlipBit(ckptName(40), 30); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(testOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 30 {
		t.Fatalf("should fall back to checkpoint 30, got %+v", rec.Checkpoint)
	}
	wantPrefix(t, recoveredIDs(rec), 40)
}

func TestIdentityMismatchRefused(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]*tuple.Tuple{ev(1)})
	l.Close()
	o := testOpts(fs)
	o.Identity = "tenant-b"
	_, _, err = Open(o)
	if err == nil || !strings.Contains(err.Error(), `"tenant-a"`) {
		t.Fatalf("want identity mismatch error, got %v", err)
	}
}

func TestSegmentHeaderCarriesHostFingerprint(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]*tuple.Tuple{ev(1)})
	l.Close()
	buf, err := fs.ReadFile(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok := readFrame(buf, 0)
	if !ok {
		t.Fatal("unreadable header")
	}
	hdr, err := parseHeaderPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.host != hostFingerprint() || hdr.identity != "tenant-a" {
		t.Fatalf("header = %+v", hdr)
	}
}

// TestVersion1LogRefused: testdata/v1 holds a sealed segment and a
// checkpoint written by version 1 of the format, whose batch records
// repeat the table name before every tuple. Open must
// refuse each with a located error naming both versions — not skip the
// checkpoint for an older one, and not cut the segment as a torn tail.
func TestVersion1LogRefused(t *testing.T) {
	fs := NewMemFS()
	names := []string{ckptName(2), segName(1)}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.OpenAppend(name)
		f.Write(data)
		f.Sync()
	}
	for _, name := range names {
		before, _ := fs.ReadFile(segName(1))
		_, _, err := Open(testOpts(fs))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Segment != name || ce.Offset != 0 ||
			!strings.Contains(err.Error(), "version 1 (want 2)") {
			t.Fatalf("open with %s of version 1: want a CorruptError at %s+0 naming versions 1 and 2, got %v", name, name, err)
		}
		if after, _ := fs.ReadFile(segName(1)); !bytes.Equal(before, after) {
			t.Fatalf("refusing %s changed the segment from %d to %d bytes", name, len(before), len(after))
		}
		fs.Remove(name) // then the segment alone
	}
}
