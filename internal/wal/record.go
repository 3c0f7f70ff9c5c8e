package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// Record framing. Every record in a segment is one CRC-framed payload:
//
//	u32le payloadLen | u32le crc32(IEEE, payload) | payload
//
// and the payload's first byte is its record type. A reader that finds a
// short frame, an impossible length or a CRC mismatch knows the exact byte
// offset of the damage; whether that is a benign torn tail or loud
// corruption depends on where in the log it sits (see recover.go).
//
// Payloads:
//
//	recHeader  magic+version, segment index, previous chain hash, the
//	           tenant/program identity and the host fingerprint — first
//	           record of every segment.
//	recBatch   one group-committed batch of external tuples: the sequence
//	           number of its first tuple, a count, then each tuple as
//	           (u8 nameLen|tableName|fields), fields encoded by schema
//	           column kind (int/float 8B LE, bool 1B, string u32le-len).
//	recSeal    the segment trailer: the chain hash over everything before
//	           it — fnv64a folded over the previous segment's seal and
//	           every frame of this segment. Tamper with one durable byte
//	           anywhere in a sealed segment and the chain breaks.
const (
	recHeader = 0x01
	recBatch  = 0x02
	recSeal   = 0x03
)

const (
	walMagic    = "jstarwal"
	ckptMagic   = "jstarckp"
	walVersion  = 1
	frameHead   = 8        // len + crc
	maxFrameLen = 64 << 20 // corrupt-length guard
	maxWireStr  = 16 << 20 // mirrors the serve codec's string guard
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// appendFrame wraps payload in the length+CRC frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// readFrame parses one frame at buf[off:], returning the payload and the
// offset just past the frame. ok is false when the bytes at off do not
// form a whole, CRC-valid frame — the caller decides whether that is a
// torn tail or corruption.
func readFrame(buf []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+frameHead > int64(len(buf)) {
		return nil, off, false
	}
	n := binary.LittleEndian.Uint32(buf[off:])
	crc := binary.LittleEndian.Uint32(buf[off+4:])
	if n == 0 || n > maxFrameLen || off+frameHead+int64(n) > int64(len(buf)) {
		return nil, off, false
	}
	payload = buf[off+frameHead : off+frameHead+int64(n)]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, off, false
	}
	return payload, off + frameHead + int64(n), true
}

// fold mixes bytes into the running FNV-1a segment chain.
func fold(h uint64, p []byte) uint64 {
	const prime = 1099511628211
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

const chainSeed uint64 = 1469598103934665603 // FNV-1a offset basis

// ---- segment header ----

type segHeader struct {
	index     uint64
	prevChain uint64
	identity  string
	host      string
}

func appendHeaderPayload(dst []byte, h segHeader) []byte {
	dst = append(dst, recHeader)
	dst = append(dst, walMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, walVersion)
	dst = binary.LittleEndian.AppendUint64(dst, h.index)
	dst = binary.LittleEndian.AppendUint64(dst, h.prevChain)
	dst = appendString(dst, h.identity)
	return appendString(dst, h.host)
}

func parseHeaderPayload(p []byte) (segHeader, error) {
	var h segHeader
	if len(p) < 1+len(walMagic)+2+16 || p[0] != recHeader {
		return h, fmt.Errorf("not a segment header")
	}
	p = p[1:]
	if string(p[:len(walMagic)]) != walMagic {
		return h, fmt.Errorf("bad magic %q", p[:len(walMagic)])
	}
	p = p[len(walMagic):]
	if v := binary.LittleEndian.Uint16(p); v != walVersion {
		return h, fmt.Errorf("unsupported wal version %d (want %d)", v, walVersion)
	}
	p = p[2:]
	h.index = binary.LittleEndian.Uint64(p)
	h.prevChain = binary.LittleEndian.Uint64(p[8:])
	p = p[16:]
	var err error
	if h.identity, p, err = takeString(p); err != nil {
		return h, err
	}
	if h.host, _, err = takeString(p); err != nil {
		return h, err
	}
	return h, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeString(p []byte) (string, []byte, error) {
	if len(p) < 4 {
		return "", p, fmt.Errorf("truncated string length")
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxWireStr || int(n) > len(p)-4 {
		return "", p, fmt.Errorf("string length %d exceeds payload", n)
	}
	return string(p[4 : 4+n]), p[4+n:], nil
}

// ---- batch records ----

// appendBatchPayload encodes one group of external tuples. firstSeq is the
// global tuple sequence of ts[0]; the reader uses it to skip tuples a
// checkpoint already covers and to detect reordered segments.
func appendBatchPayload(dst []byte, firstSeq uint64, ts []*tuple.Tuple) ([]byte, error) {
	dst = append(dst, recBatch)
	dst = binary.LittleEndian.AppendUint64(dst, firstSeq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		var err error
		if dst, err = appendTuple(dst, t); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendTuple(dst []byte, t *tuple.Tuple) ([]byte, error) {
	sch := t.Schema()
	if sch == nil {
		return dst, fmt.Errorf("wal: cannot log a schema-less probe tuple")
	}
	if len(sch.Name) > 255 {
		return dst, fmt.Errorf("wal: table name %q exceeds 255 bytes", sch.Name)
	}
	dst = append(dst, byte(len(sch.Name)))
	dst = append(dst, sch.Name...)
	for i := range sch.Columns {
		var err error
		if dst, err = appendValue(dst, sch, i, t.Field(i)); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendValue encodes v as column i of sch: the one per-value kind switch
// behind batch records and checkpoint rows.
func appendValue(dst []byte, sch *tuple.Schema, i int, v tuple.Value) ([]byte, error) {
	switch c := sch.Columns[i]; c.Kind {
	case tuple.KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.AsInt()))
	case tuple.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case tuple.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		dst = append(dst, b)
	case tuple.KindString:
		s := v.AsString()
		if len(s) > maxWireStr {
			return dst, fmt.Errorf("wal: string field of %s exceeds %d bytes", sch.Name, maxWireStr)
		}
		dst = appendString(dst, s)
	default:
		return dst, fmt.Errorf("wal: table %s column %s has unsupported kind %v", sch.Name, c.Name, c.Kind)
	}
	return dst, nil
}

// Resolver maps a logged table name back to its schema — typically the
// Program's table registry. Decoding fails loudly on unknown tables: a WAL
// replayed against a program that no longer declares the table cannot be
// silently dropped.
type Resolver func(table string) *tuple.Schema

// parseBatchPayload decodes a batch record's tuples, appending to out.
func parseBatchPayload(p []byte, resolve Resolver, out []*tuple.Tuple) (firstSeq uint64, _ []*tuple.Tuple, err error) {
	if len(p) < 13 || p[0] != recBatch {
		return 0, out, fmt.Errorf("not a batch record")
	}
	firstSeq = binary.LittleEndian.Uint64(p[1:])
	count := binary.LittleEndian.Uint32(p[9:])
	p = p[13:]
	for i := uint32(0); i < count; i++ {
		var t *tuple.Tuple
		if t, p, err = parseTuple(p, resolve); err != nil {
			return firstSeq, out, fmt.Errorf("tuple %d: %w", i, err)
		}
		out = append(out, t)
	}
	return firstSeq, out, nil
}

func parseTuple(p []byte, resolve Resolver) (*tuple.Tuple, []byte, error) {
	if len(p) < 1 {
		return nil, p, fmt.Errorf("truncated table name length")
	}
	n := int(p[0])
	if len(p) < 1+n {
		return nil, p, fmt.Errorf("truncated table name")
	}
	name := string(p[1 : 1+n])
	p = p[1+n:]
	sch := resolve(name)
	if sch == nil {
		return nil, p, fmt.Errorf("unknown table %q (not declared on this program)", name)
	}
	return parseFields(p, sch)
}

// parseFields decodes one tuple's field values for a known schema.
func parseFields(p []byte, sch *tuple.Schema) (*tuple.Tuple, []byte, error) {
	name := sch.Name
	fields := make([]tuple.Value, len(sch.Columns))
	for i, c := range sch.Columns {
		switch c.Kind {
		case tuple.KindInt:
			if len(p) < 8 {
				return nil, p, fmt.Errorf("truncated int field of %s", name)
			}
			fields[i] = tuple.Int(int64(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		case tuple.KindFloat:
			if len(p) < 8 {
				return nil, p, fmt.Errorf("truncated float field of %s", name)
			}
			fields[i] = tuple.Float(math.Float64frombits(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		case tuple.KindBool:
			if len(p) < 1 {
				return nil, p, fmt.Errorf("truncated bool field of %s", name)
			}
			fields[i] = tuple.Bool(p[0] != 0)
			p = p[1:]
		case tuple.KindString:
			s, rest, err := takeString(p)
			if err != nil {
				return nil, p, fmt.Errorf("string field of %s: %w", name, err)
			}
			fields[i] = tuple.String_(s)
			p = rest
		default:
			return nil, p, fmt.Errorf("unsupported column kind %v", c.Kind)
		}
	}
	return tuple.New(sch, fields...), p, nil
}

// ---- seal records ----

func appendSealPayload(dst []byte, chain uint64) []byte {
	dst = append(dst, recSeal)
	return binary.LittleEndian.AppendUint64(dst, chain)
}

func parseSealPayload(p []byte) (uint64, bool) {
	if len(p) != 9 || p[0] != recSeal {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p[1:]), true
}
