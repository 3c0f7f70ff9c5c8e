package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
	"github.com/jstar-lang/jstar/internal/wal"
)

// codecProgram declares one table of every supported kind, and a second
// table to interleave with it.
func codecProgram() *core.Program {
	p := core.NewProgram()
	p.Table("Mixed", []tuple.Column{
		{Name: "i", Kind: tuple.KindInt},
		{Name: "f", Kind: tuple.KindFloat},
		{Name: "s", Kind: tuple.KindString},
		{Name: "b", Kind: tuple.KindBool},
	}, []tuple.OrderEntry{tuple.Lit("Mixed")})
	p.Table("Tag", []tuple.Column{{Name: "id", Kind: tuple.KindInt}}, []tuple.OrderEntry{tuple.Lit("Tag")})
	return p
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	prog := codecProgram()
	sch := prog.Schema("Mixed")
	rows := [][]tuple.Value{
		{tuple.Int(-42), tuple.Float(3.25), tuple.String_("héllo, wörld"), tuple.Bool(true)},
		{tuple.Int(1 << 40), tuple.Float(-0.5), tuple.String_(""), tuple.Bool(false)},
	}
	// Two frames back to back for the same table.
	frames, err := AppendFrame(nil, sch, rows[:1])
	if err != nil {
		t.Fatal(err)
	}
	frames, err = AppendFrame(frames, sch, rows[1:])
	if err != nil {
		t.Fatal(err)
	}
	var got []*tuple.Tuple
	n, err := binaryIngest(bytes.NewReader(frames), -1, prog, func(ts ...*tuple.Tuple) error {
		got = append(got, ts...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("decoded %d tuples (%d flushed), want 2", len(got), n)
	}
	for ri, row := range rows {
		for i, want := range row {
			if !got[ri].Field(i).Equal(want) {
				t.Errorf("row %d field %d = %v, want %v", ri, i, got[ri].Field(i), want)
			}
		}
	}
}

func TestBinaryIngestFlushesLongStreams(t *testing.T) {
	prog := codecProgram()
	sch := prog.Schema("Mixed")
	const rows = ingestFlushRows*2 + 7
	var frames []byte
	var err error
	for i := 0; i < rows; i++ {
		frames, err = AppendFrame(frames, sch, [][]tuple.Value{{
			tuple.Int(int64(i)), tuple.Float(0), tuple.String_("x"), tuple.Bool(false),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	var flushes, total int
	n, err := binaryIngest(bytes.NewReader(frames), -1, prog, func(ts ...*tuple.Tuple) error {
		flushes++
		total += len(ts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != rows || total != rows {
		t.Fatalf("absorbed %d/%d, want %d", n, total, rows)
	}
	if flushes < 3 {
		t.Errorf("flushes = %d, want chunked (>= 3)", flushes)
	}
}

func TestBinaryIngestErrors(t *testing.T) {
	prog := codecProgram()
	sch := prog.Schema("Mixed")
	frames, err := AppendFrame(nil, sch, [][]tuple.Value{{
		tuple.Int(1), tuple.Float(1), tuple.String_("a"), tuple.Bool(true),
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"unknown table":  append([]byte{4, 'N', 'o', 'p', 'e'}, 0, 0, 0, 0),
		"truncated row":  frames[:len(frames)-3],
		"truncated name": {200, 'x'},
	}
	for name, stream := range cases {
		if _, err := binaryIngest(bytes.NewReader(stream), -1, prog, func(...*tuple.Tuple) error { return nil }); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestJSONIngestKindChecks(t *testing.T) {
	prog := codecProgram()
	var got []*tuple.Tuple
	put := func(ts ...*tuple.Tuple) error { got = append(got, ts...); return nil }
	// 2^53+1 survives only if numbers decode as json.Number, not float64.
	ok := `{"rows":[[9007199254740993, 2.5, "s", true], [2, 3, "t", false]], "table":"Mixed"}`
	if n, err := jsonIngest(strings.NewReader(ok), prog, put); err != nil || n != 2 {
		t.Fatalf("valid rows: n=%d err=%v", n, err)
	}
	if len(got) != 2 || got[0].Field(0).AsInt() != 9007199254740993 || got[1].Field(1).AsFloat() != 3 {
		t.Fatalf("decoded rows = %v", got)
	}
	for name, body := range map[string]string{
		"wrong kind":    `{"table":"Mixed","rows":[["not-int", 2.5, "s", true]]}`,
		"short row":     `{"table":"Mixed","rows":[[1, 2.5]]}`,
		"long row":      `{"table":"Mixed","rows":[[1, 2.5, "s", true, 5]]}`,
		"row not array": `{"table":"Mixed","rows":["x"]}`,
		"unknown table": `{"table":"Nope","rows":[[1]]}`,
		"not json":      `{{{`,
	} {
		if _, err := jsonIngest(strings.NewReader(body), prog, put); err == nil {
			t.Errorf("%s: ingested without error", name)
		}
	}
}

func TestRowsJSONDeterministic(t *testing.T) {
	prog := codecProgram()
	sch := prog.Schema("Mixed")
	a := tuple.New(sch, tuple.Int(2), tuple.Float(1.5), tuple.String_("b"), tuple.Bool(false))
	b := tuple.New(sch, tuple.Int(1), tuple.Float(0.25), tuple.String_("a \"q\""), tuple.Bool(true))
	fwd := RowsJSON([]*tuple.Tuple{a, b})
	rev := RowsJSON([]*tuple.Tuple{b, a})
	if string(fwd) != string(rev) {
		t.Errorf("RowsJSON depends on input order:\n%s\n%s", fwd, rev)
	}
	want := `[[1,0.25,"a \"q\"",true],[2,1.5,"b",false]]`
	if string(fwd) != want {
		t.Errorf("RowsJSON = %s, want %s", fwd, want)
	}
	if got := string(RowsJSON(nil)); got != "[]" {
		t.Errorf("empty RowsJSON = %s, want []", got)
	}
}

func TestPrefixFromJSON(t *testing.T) {
	prog := codecProgram()
	sch := prog.Schema("Mixed")
	vals, err := prefixFromJSON(sch, `[7, 1.5]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0].AsInt() != 7 || vals[1].AsFloat() != 1.5 {
		t.Fatalf("prefix = %v", vals)
	}
	if vals, err := prefixFromJSON(sch, ""); err != nil || vals != nil {
		t.Fatalf("empty prefix: %v %v", vals, err)
	}
	for name, raw := range map[string]string{
		"too long":   `[1,2,"s",true,5]`,
		"wrong kind": `["s"]`,
		"not array":  `{"a":1}`,
	} {
		if _, err := prefixFromJSON(sch, raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWALRecordsAreIngestFrames pins the one row format: a WAL batch
// record is its head (record type, first sequence, tuple count) followed
// by exactly the bytes AppendFrame writes for each run of same-table
// tuples, and each table section of a checkpoint is the bytes of one
// frame. Recovery returns the logged tuples and checkpoint rows in the
// order they went in.
func TestWALRecordsAreIngestFrames(t *testing.T) {
	prog := codecProgram()
	mixed, tag := prog.Schema("Mixed"), prog.Schema("Tag")
	m := func(i int) []tuple.Value {
		return []tuple.Value{tuple.Int(int64(i)), tuple.Float(float64(i) / 4), tuple.String_(strings.Repeat("x", i)), tuple.Bool(i%2 == 0)}
	}
	g := func(i int) []tuple.Value { return []tuple.Value{tuple.Int(int64(i))} }
	frame := func(dst []byte, sch *tuple.Schema, rows ...[]tuple.Value) []byte {
		out, err := AppendFrame(dst, sch, rows)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var ts []*tuple.Tuple
	add := func(sch *tuple.Schema, rows ...[]tuple.Value) {
		for _, r := range rows {
			ts = append(ts, tuple.New(sch, r...))
		}
	}
	add(mixed, m(1))
	add(tag, g(1), g(2))
	add(mixed, m(2), m(3))
	add(tag, g(3))
	want := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64([]byte{0x02}, 1), 6)
	want = frame(want, mixed, m(1))
	want = frame(want, tag, g(1), g(2))
	want = frame(want, mixed, m(2), m(3))
	want = frame(want, tag, g(3))

	fs := wal.NewMemFS()
	opts := wal.Options{FS: fs, Identity: "codec", GroupInterval: time.Hour, Resolve: prog.Schema}
	l, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ts); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seg, err := fs.ReadFile("seg-0000000000000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	// A segment is length+CRC frames: the header's, then the batch's.
	off := 8 + binary.LittleEndian.Uint32(seg)
	n := binary.LittleEndian.Uint32(seg[off:])
	if got := seg[off+8 : off+8+n]; !bytes.Equal(got, want) {
		t.Fatalf("batch record:\n got %x\nwant %x", got, want)
	}

	rowsOf := func(sch *tuple.Schema) (rows []*tuple.Tuple) {
		for _, tp := range ts {
			if tp.Schema() == sch {
				rows = append(rows, tp)
			}
		}
		return rows
	}
	src := func(sch *tuple.Schema) wal.CheckpointSource {
		rows := rowsOf(sch)
		return wal.CheckpointSource{Schema: sch, Rows: len(rows), Scan: func(fn func([]tuple.Value) bool) {
			for _, r := range rows {
				if !fn(r.AppendFields(nil)) {
					return
				}
			}
		}}
	}
	if err := l.WriteCheckpoint(6, []wal.CheckpointSource{src(mixed), src(tag)}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := fs.ReadFile("ckpt-0000000000000006.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	// frame head | magic | version | seq | identity | table count | tables
	head := 8 + len("jstarckp") + 2 + 8 + 4 + len(opts.Identity) + 4
	tables := frame(frame(nil, mixed, m(1), m(2), m(3)), tag, g(1), g(2), g(3))
	if got := ckpt[head:]; !bytes.Equal(got, tables) {
		t.Fatalf("checkpoint tables:\n got %x\nwant %x", got, tables)
	}
	tail := []*tuple.Tuple{tuple.New(tag, g(4)...), tuple.New(mixed, m(4)...)}
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	same := func(what string, got, want []*tuple.Tuple) {
		if len(got) != len(want) {
			t.Fatalf("%s: recovered %d tuples, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 6 || len(rec.Checkpoint.Tables) != 2 {
		t.Fatalf("recovered checkpoint %+v, want seq 6 with 2 tables", rec.Checkpoint)
	}
	same("Mixed rows", rec.Checkpoint.Tables[0].Rows, rowsOf(mixed))
	same("Tag rows", rec.Checkpoint.Tables[1].Rows, rowsOf(tag))
	same("tail", rec.Tail, tail)
}

// TestBinaryPutAllocation pins what one binary put allocates through the
// handler beyond its tuples: the batch that carries them, sized to the
// put's frame, a read buffer sized to the body rather than 64 KiB, and the
// handler's own bookkeeping — at most 16 KiB for 256 rows, and at most
// 8 KiB for 16, whose batch is 16 pointers rather than a full one. The
// tenant declares one table and no rules; each put is counted between
// quiesced boundaries, and the median put is taken, so a store growth the
// engine makes meanwhile is left out.
func TestBinaryPutAllocation(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct{ rows, limit int }{{256, 16 << 10}, {16, 8 << 10}} {
		t.Run(fmt.Sprintf("rows=%d", tc.rows), func(t *testing.T) {
			testBinaryPutAllocation(t, tc.rows, uint64(tc.limit))
		})
	}
}

func testBinaryPutAllocation(t *testing.T, rows int, limit uint64) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	call := func(req *http.Request) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
		}
	}
	request := func(path, ctype string, body []byte) *http.Request {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		return req
	}
	call(request("/v1/tenants", JSONContentType, []byte(`{"name":"t","source":"table Event(int n) orderby (Event)"}`)))
	sch := srv.reg.get("t").Prog.Schema("Event")
	const puts = 101
	reqs := make([]*http.Request, puts)
	for p := range reqs {
		rs := make([][]tuple.Value, rows)
		for i := range rs {
			rs[i] = []tuple.Value{tuple.Int(int64(p*rows + i))}
		}
		frame, err := AppendFrame(nil, sch, rs)
		if err != nil {
			t.Fatal(err)
		}
		reqs[p] = request("/v1/tenants/t/put", BinaryContentType, frame)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	ts := make([]*tuple.Tuple, rows)
	tuples := allocated(func() {
		for i := range ts {
			ts[i] = tuple.New(sch, tuple.Int(int64(i)))
		}
	})
	per := make([]uint64, puts)
	for p, req := range reqs {
		call(request("/v1/tenants/t/quiesce", "", nil)) // stays under the ingress bound
		per[p] = allocated(func() { call(req) }) - tuples
	}
	slices.Sort(per)
	if median := per[puts/2]; median > limit {
		t.Errorf("a %d-row binary put allocates %d B beyond its tuples' %d B, want <= %d KiB", rows, median, tuples, limit>>10)
	}
}
