package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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
//	recBatch   one group-committed batch of external tuples: u64le
//	           sequence number of its first tuple | u32le count | one
//	           row-codec frame (tuple.AppendFrameHeader) per maximal run of
//	           same-table tuples, in absorb order.
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
	walVersion  = 2
	frameHead   = 8        // len + crc
	maxFrameLen = 64 << 20 // corrupt-length guard
)

// errVersion marks a segment or checkpoint written by another walVersion:
// recovery refuses it rather than skip it or cut it as a torn tail.
var errVersion = errors.New("unsupported version")

var crcTable = crc32.MakeTable(crc32.IEEE)

// appendFrame wraps payload in the length+CRC frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// sealFrame fills in the head of frame, a frameHead-byte gap followed by
// the payload, with the payload's length and CRC, and returns frame.
func sealFrame(frame []byte) []byte {
	payload := frame[frameHead:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return frame
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
		return h, fmt.Errorf("%w: wal version %d (want %d)", errVersion, v, walVersion)
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
	if n > tuple.MaxWireString || int(n) > len(p)-4 {
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
	var scratch [tuple.InlineFields]tuple.Value
	for len(ts) > 0 {
		sch := ts[0].Schema()
		if sch == nil {
			return dst, fmt.Errorf("wal: cannot log a schema-less probe tuple")
		}
		run := 1
		for run < len(ts) && ts[run].Schema() == sch {
			run++
		}
		dst = tuple.AppendFrameHeader(dst, sch, run)
		for _, t := range ts[:run] {
			var err error
			if dst, err = tuple.AppendRow(dst, sch, t.AppendFields(scratch[:0])); err != nil {
				return dst, fmt.Errorf("wal: %w", err)
			}
		}
		ts = ts[run:]
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
	count := int(binary.LittleEndian.Uint32(p[9:]))
	src := bytes.NewReader(p[13:])
	rd := tuple.NewRowReader(src)
	for done := 0; done < count; {
		sch, rows, err := rd.ReadFrame(resolve)
		if err != nil {
			return firstSeq, out, fmt.Errorf("tuple %d of %d: %w", done, count, err)
		}
		if rows > count-done {
			return firstSeq, out, fmt.Errorf("frame of %d %s rows overruns the batch's %d tuples", rows, sch.Name, count)
		}
		for end := done + rows; done < end; done++ {
			row, err := rd.ReadRow(sch)
			if err != nil {
				return firstSeq, out, fmt.Errorf("tuple %d: %w", done, err)
			}
			out = append(out, tuple.New(sch, row...))
		}
	}
	if src.Len() != 0 {
		return firstSeq, out, fmt.Errorf("%d bytes after the batch's %d tuples", src.Len(), count)
	}
	return firstSeq, out, nil
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
