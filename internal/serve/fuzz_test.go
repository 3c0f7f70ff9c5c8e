package serve

import (
	"bytes"
	"math"
	"testing"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// FuzzBinaryIngest feeds arbitrary bytes to the binary ingest decoder —
// what a client's request body reaches first, and where strings and raw
// float bits become Values. Garbage must come back as an error, never a
// panic; whatever decodes must survive decode → AppendFrame → decode as
// Equal tuples with equal hashes, and encode to the same bytes the second
// time (the committed corpus under testdata/fuzz holds -0.0, NaN payloads,
// a bool byte of 2, empty, NUL and non-UTF-8 strings, and truncations).
//
//	go test -run '^$' -fuzz '^FuzzBinaryIngest$' -fuzztime 60s ./internal/serve
func FuzzBinaryIngest(f *testing.F) {
	prog := codecProgram()
	sch := prog.Schema("Mixed")
	seed, err := AppendFrame(nil, sch, [][]tuple.Value{
		{tuple.Int(-42), tuple.Float(3.25), tuple.String_("héllo"), tuple.Bool(true)},
		{tuple.Int(math.MaxInt64), tuple.Float(math.Inf(1)), tuple.String_(""), tuple.Bool(false)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	decode := func(b []byte) ([]*tuple.Tuple, error) {
		var got []*tuple.Tuple
		_, err := binaryIngest(bytes.NewReader(b), -1, prog, func(ts ...*tuple.Tuple) error {
			got = append(got, ts...)
			return nil
		})
		return got, err
	}
	encode := func(t *testing.T, ts []*tuple.Tuple) []byte {
		var out []byte
		for _, tp := range ts {
			row := make([]tuple.Value, tp.Schema().Arity())
			for i := range row {
				row[i] = tp.Field(i)
			}
			var err error
			if out, err = AppendFrame(out, tp.Schema(), [][]tuple.Value{row}); err != nil {
				t.Fatalf("re-encoding %v: %v", tp, err)
			}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := decode(b)
		if err != nil {
			return
		}
		q := encode(t, ts)
		ts2, err := decode(q)
		if err != nil || len(ts2) != len(ts) {
			t.Fatalf("re-decode: %d → %d tuples, err %v", len(ts), len(ts2), err)
		}
		for i := range ts {
			if !ts[i].Equal(ts2[i]) || ts[i].Hash() != ts2[i].Hash() {
				t.Fatalf("tuple %d: %v became %v", i, ts[i], ts2[i])
			}
		}
		if q2 := encode(t, ts2); !bytes.Equal(q, q2) {
			t.Fatalf("encoding is not stable:\n%x\n%x", q, q2)
		}
	})
}
