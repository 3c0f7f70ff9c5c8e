package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Wire formats of the ingestion endpoint. JSON is the debuggable default;
// the binary batch format is the fast path: a stream of the row codec's
// frames (see tuple.AppendFrameHeader), any number back to back, decoded
// straight into Session.PutBatch through one reused scratch row (tuple.New
// copies its fields, so the decoder allocates no per-tuple intermediates
// beyond the tuple itself). Clean EOF between frames ends a stream; frames
// may repeat tables and may interleave.
const (
	// BinaryContentType selects the binary batch format on the put endpoint.
	BinaryContentType = "application/x-jstar-batch"
	// JSONContentType selects the JSON put format: {"table": T, "rows": [[...], ...]}.
	JSONContentType = "application/json"

	// ingestFlushRows is how many decoded tuples accumulate before the
	// decoder flushes them into Session.PutBatch, bounding memory for
	// arbitrarily long streams.
	ingestFlushRows = 512
)

// AppendFrame appends one binary batch frame for sch holding rows to dst
// and returns the extended slice. Each row must match the schema's arity
// and column kinds; this is the client/load-generator side of the codec.
func AppendFrame(dst []byte, sch *tuple.Schema, rows [][]tuple.Value) ([]byte, error) {
	dst = tuple.AppendFrameHeader(dst, sch, len(rows))
	for _, row := range rows {
		var err error
		if dst, err = tuple.AppendRow(dst, sch, row); err != nil {
			return dst, fmt.Errorf("serve: %w", err)
		}
	}
	return dst, nil
}

// batcher hands decoded tuples to put in chunks of ingestFlushRows and
// counts the tuples put absorbed.
type batcher struct {
	put   func(...*tuple.Tuple) error
	batch []*tuple.Tuple
	total int64
}

func (b *batcher) add(t *tuple.Tuple) error {
	if b.batch = append(b.batch, t); len(b.batch) < ingestFlushRows {
		return nil
	}
	return b.flush()
}

func (b *batcher) flush() error {
	if len(b.batch) == 0 {
		return nil
	}
	if err := b.put(b.batch...); err != nil {
		return err
	}
	b.total += int64(len(b.batch))
	b.batch = b.batch[:0]
	return nil
}

// binaryIngest decodes a binary batch stream from r, of length bytes (-1
// when unknown), into put and returns the tuple count absorbed. The read
// buffer is sized to the body, within [4 KiB, 64 KiB]: a 256-row frame is
// about 2 KiB, and a buffer per put is most of what a small put allocates.
// The batch starts at the first frame's row count, capped at
// ingestFlushRows, so a small put does not allocate a full batch.
func binaryIngest(r io.Reader, length int64, prog *core.Program, put func(...*tuple.Tuple) error) (int64, error) {
	size := 64 << 10
	if length >= 0 {
		size = int(min(max(length, 4<<10), 64<<10))
	}
	rd := tuple.NewRowReader(bufio.NewReaderSize(r, size))
	b := &batcher{put: put}
	for {
		sch, rows, err := rd.ReadFrame(prog.Schema)
		if err == io.EOF {
			return b.total, b.flush()
		}
		if err != nil {
			return b.total, fmt.Errorf("serve: %w", err)
		}
		if b.batch == nil {
			b.batch = make([]*tuple.Tuple, 0, min(rows, ingestFlushRows))
		}
		for ; rows > 0; rows-- {
			row, err := rd.ReadRow(sch)
			if err != nil {
				return b.total, fmt.Errorf("serve: %w", err)
			}
			if err := b.add(tuple.New(sch, row...)); err != nil {
				return b.total, err
			}
		}
	}
}

// jsonPut is the body of a JSON ingestion request. Its rows decode as
// cells in the body's one decoder, numbers as json.Number.
type jsonPut struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
}

// jsonIngest decodes a JSON put body into put and returns the tuple count
// absorbed.
func jsonIngest(r io.Reader, prog *core.Program, put func(...*tuple.Tuple) error) (int64, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var body jsonPut
	if err := dec.Decode(&body); err != nil {
		return 0, fmt.Errorf("serve: bad put body: %w", err)
	}
	sch := prog.Schema(body.Table)
	if sch == nil {
		return 0, fmt.Errorf("serve: put to unknown table %q", body.Table)
	}
	b := &batcher{put: put, batch: make([]*tuple.Tuple, 0, ingestFlushRows)}
	scratch := make([]tuple.Value, sch.Arity())
	for _, cells := range body.Rows {
		row, err := valuesFromCells(sch, cells, scratch)
		if err == nil && len(row) < len(scratch) {
			err = fmt.Errorf("serve: row arity %d != %s arity %d", len(row), sch.Name, len(scratch))
		}
		if err != nil {
			return b.total, err
		}
		if err := b.add(tuple.New(sch, row...)); err != nil {
			return b.total, err
		}
	}
	return b.total, b.flush()
}

// valuesFromCells converts decoded JSON cells against sch's leading column
// kinds into dst, which holds sch.Arity() values, and returns the converted
// part: a whole row, or a query prefix.
func valuesFromCells(sch *tuple.Schema, cells []any, dst []tuple.Value) ([]tuple.Value, error) {
	if len(cells) > len(dst) {
		return nil, fmt.Errorf("serve: %d values exceed %s arity %d", len(cells), sch.Name, len(dst))
	}
	for i, cell := range cells {
		v, err := valueFromJSON(sch.Columns[i].Kind, cell)
		if err != nil {
			return nil, fmt.Errorf("serve: %s.%s: %w", sch.Name, sch.Columns[i].Name, err)
		}
		dst[i] = v
	}
	return dst[:len(cells)], nil
}

// valueFromJSON converts one decoded JSON cell to a tuple.Value of kind k.
func valueFromJSON(k tuple.Kind, cell any) (tuple.Value, error) {
	switch c := cell.(type) {
	case json.Number:
		if k == tuple.KindInt {
			i, err := c.Int64()
			return tuple.Int(i), err
		}
		if k == tuple.KindFloat {
			f, err := c.Float64()
			return tuple.Float(f), err
		}
	case string:
		if k == tuple.KindString {
			return tuple.String_(c), nil
		}
	case bool:
		if k == tuple.KindBool {
			return tuple.Bool(c), nil
		}
	}
	return tuple.Value{}, fmt.Errorf("want %v, got %T", k, cell)
}

// RowsJSON renders tuples as a canonical JSON array of row arrays, sorted
// by field order so the bytes are deterministic for a given tuple set —
// the representation both the query endpoint and the in-process side of
// the parity test use. Ints render as decimal, floats via strconv 'g',
// strings JSON-escaped, bools as true/false.
func RowsJSON(rows []*tuple.Tuple) []byte {
	sorted := make([]*tuple.Tuple, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CompareFields(sorted[j]) < 0 })
	out := []byte{'['}
	for ri, t := range sorted {
		if ri > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for i := 0; i < t.Schema().Arity(); i++ {
			if i > 0 {
				out = append(out, ',')
			}
			v := t.Field(i)
			switch v.Kind() {
			case tuple.KindInt:
				out = strconv.AppendInt(out, v.AsInt(), 10)
			case tuple.KindFloat:
				out = strconv.AppendFloat(out, v.AsFloat(), 'g', -1, 64)
			case tuple.KindBool:
				out = strconv.AppendBool(out, v.AsBool())
			case tuple.KindString:
				q, _ := json.Marshal(v.AsString())
				out = append(out, q...)
			}
		}
		out = append(out, ']')
	}
	return append(out, ']')
}

// prefixFromJSON decodes a query prefix (JSON array) against sch's leading
// column kinds.
func prefixFromJSON(sch *tuple.Schema, raw string) ([]tuple.Value, error) {
	if raw == "" {
		return nil, nil
	}
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.UseNumber()
	var cells []any
	if err := dec.Decode(&cells); err != nil {
		return nil, fmt.Errorf("serve: bad %s values: %w", sch.Name, err)
	}
	return valuesFromCells(sch, cells, make([]tuple.Value, sch.Arity()))
}
