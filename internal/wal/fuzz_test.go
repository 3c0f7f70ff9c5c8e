package wal

import (
	"bytes"
	"math"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// FuzzParseBatchPayload feeds arbitrary bytes to the batch-record decoder,
// the one that rebuilds Values — strings and raw float bits — from a log
// that may be torn or corrupt. Garbage must come back as an error, never a
// panic; whatever decodes must survive decode → encode → decode as Equal
// tuples with equal hashes, and encode to the same bytes the second time
// (the committed corpus under testdata/fuzz holds -0.0, NaN payloads, a
// bool byte of 2, empty, NUL and non-UTF-8 strings, and truncations).
//
//	go test -run '^$' -fuzz '^FuzzParseBatchPayload$' -fuzztime 60s ./internal/wal
func FuzzParseBatchPayload(f *testing.F) {
	odd := tuple.New(evSchema, tuple.Int(math.MinInt64), tuple.String_(""),
		tuple.Float(math.Inf(-1)), tuple.Bool(false))
	for _, ts := range [][]*tuple.Tuple{nil, {ev(0)}, {ev(1), odd, ev(1)}} {
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
	})
}
