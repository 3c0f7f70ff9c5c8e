package tuple

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary row codec: the one byte format for rows outside the engine.
// A client's ingest stream, a WAL batch record and a checkpoint's table
// sections are all frames:
//
//	frame = u8 nameLen | name | u32le rowCount | rowCount rows
//	row   = one field per schema column, in declaration order:
//	          int    8 bytes little-endian two's complement
//	          float  8 bytes little-endian IEEE-754
//	          bool   1 byte (0 or 1; any other byte decodes as true)
//	          string u32le byteLen | bytes
const (
	// MaxNameLen is the longest table name a frame header can carry;
	// NewSchema refuses longer names.
	MaxNameLen = 255
	// MaxWireString caps one string field (16 MiB), on both sides: a
	// corrupt length prefix cannot ask a decoder for gigabytes, and an
	// encoder never writes a row the decoder would refuse.
	MaxWireString = 16 << 20
)

// AppendFrameHeader appends the header of a frame of rows rows of sch;
// the caller follows it with exactly that many AppendRow calls.
func AppendFrameHeader(dst []byte, sch *Schema, rows int) []byte {
	dst = append(dst, byte(len(sch.Name)))
	dst = append(dst, sch.Name...)
	return binary.LittleEndian.AppendUint32(dst, uint32(rows))
}

// AppendRow appends row as one row of sch. It fails when the row's arity
// or a field's kind differs from the schema's, or a string is over
// MaxWireString; dst may then hold part of the row.
func AppendRow(dst []byte, sch *Schema, row []Value) ([]byte, error) {
	if len(row) != len(sch.Columns) {
		return dst, fmt.Errorf("row arity %d != %s arity %d", len(row), sch.Name, len(sch.Columns))
	}
	for i, v := range row {
		c := &sch.Columns[i]
		if v.Kind() != c.Kind {
			return dst, fmt.Errorf("%s.%s: field kind %v, want %v", sch.Name, c.Name, v.Kind(), c.Kind)
		}
		switch c.Kind {
		case KindInt, KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, v.n)
		case KindBool:
			dst = append(dst, byte(v.n))
		case KindString:
			if v.n > MaxWireString {
				return dst, fmt.Errorf("%s.%s: string of %d bytes exceeds %d", sch.Name, c.Name, v.n, MaxWireString)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.n))
			dst = append(dst, v.str()...)
		}
	}
	return dst, nil
}

// AppendFields appends t's field values to dst in column order.
func (t *Tuple) AppendFields(dst []Value) []Value {
	for i := range t.schema.kinds {
		dst = append(dst, t.Field(i))
	}
	return dst
}

// RowReader decodes frames, one row at a time into a scratch row it
// reuses. Its source is a *bufio.Reader over a request body, or a
// *bytes.Reader over a WAL payload or a checkpoint.
type RowReader struct {
	src io.Reader
	row []Value
	buf []byte // the bytes of one frame header or field
}

// NewRowReader returns a reader of the frames in src.
func NewRowReader(src io.Reader) *RowReader { return &RowReader{src: src} }

// take reads the next n bytes of src into r.buf.
func (r *RowReader) take(n int) ([]byte, error) {
	if cap(r.buf) < n {
		r.buf = make([]byte, max(n, 64))
	}
	b := r.buf[:n]
	_, err := io.ReadFull(r.src, b)
	return b, err
}

// ReadFrame reads a frame header, resolves its table name and returns the
// schema and the frame's row count. It returns io.EOF, unwrapped, only
// when src ends cleanly before the header.
func (r *RowReader) ReadFrame(resolve func(table string) *Schema) (*Schema, int, error) {
	b, err := r.take(1)
	if err != nil {
		return nil, 0, err
	}
	n := b[0]
	hdr, err := r.take(int(n) + 4)
	if err != nil {
		return nil, 0, fmt.Errorf("truncated frame header: %w", err)
	}
	sch := resolve(string(hdr[:n]))
	if sch == nil {
		return nil, 0, fmt.Errorf("frame for unknown table %q", hdr[:n])
	}
	return sch, int(binary.LittleEndian.Uint32(hdr[n:])), nil
}

// ReadRow decodes one row of sch. The returned row is the reader's
// scratch row: valid until the next ReadRow.
func (r *RowReader) ReadRow(sch *Schema) ([]Value, error) {
	if cap(r.row) < len(sch.Columns) {
		r.row = make([]Value, len(sch.Columns))
	}
	row := r.row[:len(sch.Columns)]
	for i, c := range sch.Columns {
		b, err := r.take(fieldBytes[c.Kind])
		if err != nil {
			return nil, fmt.Errorf("truncated %s row: %w", sch.Name, err)
		}
		switch c.Kind {
		case KindInt:
			row[i] = Int(int64(binary.LittleEndian.Uint64(b)))
		case KindFloat:
			row[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		case KindBool:
			row[i] = Bool(b[0] != 0)
		case KindString:
			n := binary.LittleEndian.Uint32(b)
			if n > MaxWireString {
				return nil, fmt.Errorf("%s.%s: string of %d bytes exceeds %d", sch.Name, c.Name, n, MaxWireString)
			}
			if b, err = r.take(int(n)); err != nil {
				return nil, fmt.Errorf("truncated %s row: %w", sch.Name, err)
			}
			row[i] = String_(string(b))
		}
	}
	return row, nil
}

// FrameBytes is the size of a frame of rows rows of sch less its strings'
// bytes: exact for a table without string columns, a lower bound with.
func FrameBytes(sch *Schema, rows int) int {
	w := 0
	for _, c := range sch.Columns {
		w += fieldBytes[c.Kind]
	}
	return 1 + len(sch.Name) + 4 + rows*w
}

// fieldBytes is each kind's fixed width on the wire: a string's is its
// length prefix.
var fieldBytes = [...]int{KindInt: 8, KindFloat: 8, KindString: 4, KindBool: 1}
