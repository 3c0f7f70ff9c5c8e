package wal

import (
	"bytes"
	"math"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// appendTableFrame encodes rows of sch as one row-codec frame.
func appendTableFrame(t testing.TB, dst []byte, sch *tuple.Schema, rows []*tuple.Tuple) []byte {
	dst = tuple.AppendFrameHeader(dst, sch, len(rows))
	for _, r := range rows {
		var err error
		if dst, err = tuple.AppendRow(dst, sch, r.AppendFields(nil)); err != nil {
			t.Fatalf("encoding %v: %v", r, err)
		}
	}
	return dst
}

// framesOf encodes ts as the row codec's frames, one per maximal run of
// same-table tuples: what a batch record holds after its head.
func framesOf(t testing.TB, ts []*tuple.Tuple) []byte {
	var out []byte
	for len(ts) > 0 {
		run := 1
		for run < len(ts) && ts[run].Schema() == ts[0].Schema() {
			run++
		}
		out = appendTableFrame(t, out, ts[0].Schema(), ts[:run])
		ts = ts[run:]
	}
	return out
}

func tag(i int) *tuple.Tuple { return tuple.New(tagSchema, tuple.Int(int64(i)), tuple.Bool(i%3 == 0)) }

// FuzzParseBatchPayload feeds arbitrary bytes to the batch-record decoder,
// the one that rebuilds Values — strings and raw float bits — from a log
// that may be torn or corrupt. Garbage must come back as an error, never a
// panic; whatever decodes must survive decode → encode → decode as Equal
// tuples with equal hashes, encode to the same bytes the second time, and
// encode as the record head followed by exactly the row codec's frames of
// its same-table runs (the committed corpus under testdata/fuzz holds
// -0.0, NaN payloads, a bool byte of 2, empty, NUL and non-UTF-8 strings,
// interleaved tables, truncations and frames that disagree with the
// record's count).
//
//	go test -run '^$' -fuzz '^FuzzParseBatchPayload$' -fuzztime 60s ./internal/wal
func FuzzParseBatchPayload(f *testing.F) {
	odd := tuple.New(evSchema, tuple.Int(math.MinInt64), tuple.String_(""),
		tuple.Float(math.Inf(-1)), tuple.Bool(false))
	for _, ts := range [][]*tuple.Tuple{nil, {ev(0)}, {ev(1), odd, ev(1)}, {ev(1), tag(1), tag(2), ev(2)}} {
		p, err := appendBatchPayload(nil, 7, ts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, ts, err := parseBatchPayload(p, testResolve, nil)
		if err != nil {
			return
		}
		q, err := appendBatchPayload(nil, seq, ts)
		if err != nil {
			t.Fatalf("re-encoding decoded tuples: %v", err)
		}
		seq2, ts2, err := parseBatchPayload(q, testResolve, nil)
		if err != nil || seq2 != seq || len(ts2) != len(ts) {
			t.Fatalf("re-decode: seq %d → %d, %d → %d tuples, err %v", seq, seq2, len(ts), len(ts2), err)
		}
		for i := range ts {
			if !ts[i].Equal(ts2[i]) || ts[i].Hash() != ts2[i].Hash() {
				t.Fatalf("tuple %d: %v became %v", i, ts[i], ts2[i])
			}
		}
		if q2, _ := appendBatchPayload(nil, seq2, ts2); !bytes.Equal(q, q2) {
			t.Fatalf("encoding is not stable:\n%x\n%x", q, q2)
		}
		if frames := framesOf(t, ts); !bytes.Equal(q[13:], frames) {
			t.Fatalf("batch record is not its runs' frames:\n%x\n%x", q[13:], frames)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary checkpoint payloads to the decoder
// recovery trusts to rebuild Gamma. The input is decoded twice: as raw file
// bytes, which exercises the frame check, and wrapped in a valid length+CRC
// frame, which lets the mutator reach the table and row decoding behind
// it. Garbage must come back as an error, never a panic; whatever decodes
// must survive decode → encode → decode as Equal tuples in the same order,
// encode to the same bytes the second time, and encode each table as
// exactly one row-codec frame. Re-encoding goes through the write path's
// encoder, each table visited row by row as a session visits its stores
// (the committed corpus under testdata/fuzz holds an empty table, -0.0
// and NaN payloads, an unknown table, a truncated row and a row count that
// exceeds the bytes).
//
//	go test -run '^$' -fuzz '^FuzzDecodeCheckpoint$' -fuzztime 60s ./internal/wal
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, c := range []*Checkpoint{
		{Seq: 1, Identity: "t"},
		{Seq: 9, Identity: "t", Tables: []CheckpointTable{
			{Name: "ev", Rows: []*tuple.Tuple{ev(1), ev(0)}},
			{Name: "tag", Rows: []*tuple.Tuple{tag(3)}},
		}},
	} {
		buf, err := encodeCheckpoint(c.Seq, c.Identity, sources(c))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[frameHead:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		decodeCheckpoint(p, testResolve)
		c, err := decodeCheckpoint(appendFrame(nil, p), testResolve)
		if err != nil {
			return
		}
		buf, err := encodeCheckpoint(c.Seq, c.Identity, sources(c))
		if err != nil {
			t.Fatalf("re-encoding a decoded checkpoint: %v", err)
		}
		c2, err := decodeCheckpoint(buf, testResolve)
		if err != nil || c2.Seq != c.Seq || c2.Identity != c.Identity || len(c2.Tables) != len(c.Tables) {
			t.Fatalf("re-decode: %+v became %+v, err %v", c, c2, err)
		}
		for i, tb := range c.Tables {
			tb2 := c2.Tables[i]
			if tb2.Name != tb.Name || len(tb2.Rows) != len(tb.Rows) {
				t.Fatalf("table %d: %s/%d rows became %s/%d", i, tb.Name, len(tb.Rows), tb2.Name, len(tb2.Rows))
			}
			for j := range tb.Rows {
				if !tb.Rows[j].Equal(tb2.Rows[j]) {
					t.Fatalf("table %s row %d: %v became %v", tb.Name, j, tb.Rows[j], tb2.Rows[j])
				}
			}
		}
		if buf2, _ := encodeCheckpoint(c2.Seq, c2.Identity, sources(c2)); !bytes.Equal(buf, buf2) {
			t.Fatalf("encoding is not stable:\n%x\n%x", buf, buf2)
		}
		var frames []byte
		for _, tb := range c.Tables {
			frames = appendTableFrame(t, frames, testResolve(tb.Name), tb.Rows)
		}
		head := frameHead + len(ckptMagic) + 2 + 8 + 4 + len(c.Identity) + 4
		if !bytes.Equal(buf[head:], frames) {
			t.Fatalf("checkpoint tables are not one frame each:\n%x\n%x", buf[head:], frames)
		}
	})
}

// FuzzParseHeaderPayload feeds arbitrary bytes to the segment-header
// decoder, the first thing recovery reads from every segment file.
// Garbage must come back as an error, never a panic; whatever decodes
// must survive decode → encode → decode unchanged.
//
//	go test -run '^$' -fuzz '^FuzzParseHeaderPayload$' -fuzztime 60s ./internal/wal
func FuzzParseHeaderPayload(f *testing.F) {
	for _, h := range []segHeader{
		{},
		{index: 1, prevChain: chainSeed, identity: "tenant", host: "h"},
		{index: math.MaxUint64, prevChain: 7, identity: "\x00\xff", host: ""},
	} {
		f.Add(appendHeaderPayload(nil, h))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := parseHeaderPayload(p)
		if err != nil {
			return
		}
		h2, err := parseHeaderPayload(appendHeaderPayload(nil, h))
		if err != nil || h2 != h {
			t.Fatalf("re-decode: %+v became %+v, err %v", h, h2, err)
		}
	})
}
