package tuple

import "fmt"

// Word rows: the fields of an all-scalar schema's row as the payload words
// its tuples carry, one uint64 per column. A caller that holds many rows
// before it needs them as tuples — a program's initial puts — keeps them
// this way in pointer-free memory, and builds a tuple only when one is
// needed.

// WordRows reports whether s's tuples carry their fields as words: every
// column is an int, float or bool, and there are at most InlineFields of
// them. These are the schemas AppendWords and FromWords serve.
func (s *Schema) WordRows() bool { return s.layout == layoutWords }

// AppendWords appends the payload words of New(s, fields...) to dst,
// without building the tuple: it panics on arity and normalises each field
// exactly as New does. s must be a WordRows schema; fields does not escape.
func AppendWords(dst []uint64, s *Schema, fields ...Value) []uint64 {
	if s.layout != layoutWords {
		panic(fmt.Sprintf("jstar: new %s: not a word-row table", s.Name))
	}
	if len(fields) != len(s.kinds) {
		panic(fmt.Sprintf("jstar: new %s: got %d fields, want %d", s.Name, len(fields), len(s.kinds)))
	}
	for i, v := range fields {
		if v.p != tag(s.kinds[i]) {
			v = s.normalise(i, v)
		}
		dst = append(dst, v.n)
	}
	return dst
}

// FromWords builds the tuple whose payload words are ws, as AppendWords
// produced them: FromWords(s, AppendWords(nil, s, fields...)) equals
// New(s, fields...). ws is copied.
func FromWords(s *Schema, ws []uint64) *Tuple {
	if s.layout != layoutWords || len(ws) != len(s.kinds) {
		panic(fmt.Sprintf("jstar: new %s: %d words for %d word columns", s.Name, len(ws), len(s.kinds)))
	}
	t := s.alloc()
	t.schema = s
	copy(t.words(), ws)
	t.hash = t.computeHash()
	t.computeKeys()
	return t
}

// WordValue returns word w of column i, as AppendWords produced it, as the
// Value the column's tuples carry.
func (s *Schema) WordValue(i int, w uint64) Value { return Value{p: tag(s.kinds[i]), n: w} }
