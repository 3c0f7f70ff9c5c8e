package tuple

import (
	"fmt"
	"strings"
)

// OrderKind classifies one entry of a table's orderby list (paper §5).
type OrderKind uint8

const (
	// OrderLit is a capitalised literal name, ordered by the partial order
	// given by explicit `order A < B < C` declarations.
	OrderLit OrderKind = iota
	// OrderSeq is `seq field`: subtrees sorted sequentially by field value.
	OrderSeq
	// OrderPar is `par field`: subtrees unordered, so executable in parallel.
	OrderPar
)

// String names the kind as the surface syntax spells it.
func (k OrderKind) String() string { return [...]string{"literal", "seq", "par"}[k] }

// OrderEntry is one component of an orderby list: either a literal name or a
// (seq|par) reference to a column of the table.
type OrderEntry struct {
	Kind  OrderKind
	Lit   string // literal name when Kind == OrderLit
	Field string // column name when Kind == OrderSeq or OrderPar
}

// Seq returns a `seq field` orderby entry.
func Seq(field string) OrderEntry { return OrderEntry{Kind: OrderSeq, Field: field} }

// Par returns a `par field` orderby entry.
func Par(field string) OrderEntry { return OrderEntry{Kind: OrderPar, Field: field} }

// Lit returns a literal-name orderby entry.
func Lit(name string) OrderEntry { return OrderEntry{Kind: OrderLit, Lit: name} }

// String renders the entry in JStar surface syntax.
func (e OrderEntry) String() string {
	switch e.Kind {
	case OrderLit:
		return e.Lit
	case OrderSeq:
		return "seq " + e.Field
	case OrderPar:
		return "par " + e.Field
	}
	return "?"
}

// Column describes one field of a relation.
type Column struct {
	Name string
	Kind Kind
	Key  bool // part of the primary key (left of `->`)
}

// Schema describes a JStar relation: its name, columns, primary key, and
// orderby list. A Schema corresponds to one `table` declaration, e.g.
//
//	table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)
type Schema struct {
	Name    string
	Columns []Column
	OrderBy []OrderEntry

	keyCols []int // positions of primary-key columns
	obCols  []int // column position per orderby entry, -1 for literals
	pathCol int   // first seq/par orderby column, -1 if all literals
	id      int32 // dense id assigned by the registry (engine)
	// hashSeed is HashSeed with Name folded in: where every tuple's
	// identity hash starts, computed once instead of per tuple.
	hashSeed uint64
	// kinds holds each column's kind, layout the payload the schema's
	// tuples carry (see Tuple), and alloc allocates one of them.
	kinds  []Kind
	layout layout
	alloc  func() *Tuple
}

// NewSchema builds and validates a schema. It returns an error if the
// name is empty or longer than a frame header carries (MaxNameLen bytes),
// column names repeat, an orderby entry names an unknown column, or the
// orderby field is non-scalar.
func NewSchema(name string, cols []Column, orderBy []OrderEntry) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("jstar: table name must be non-empty")
	}
	if len(name) > MaxNameLen {
		return nil, fmt.Errorf("jstar: table name %.32q... is %d bytes, over the %d-byte limit", name, len(name), MaxNameLen)
	}
	s := &Schema{
		Name:     name,
		Columns:  append([]Column(nil), cols...),
		OrderBy:  append([]OrderEntry(nil), orderBy...),
		hashSeed: hashString(HashSeed, name),
		kinds:    make([]Kind, len(cols)),
	}
	for i, c := range s.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("jstar: table %s: column %d has empty name", name, i)
		}
		if s.ColumnIndex(c.Name) < i {
			return nil, fmt.Errorf("jstar: table %s: duplicate column %q", name, c.Name)
		}
		if c.Kind == KindInvalid {
			return nil, fmt.Errorf("jstar: table %s: column %q has invalid kind", name, c.Name)
		}
		if c.Key {
			s.keyCols = append(s.keyCols, i)
		}
		s.kinds[i] = c.Kind
	}
	s.layout, s.alloc = chooseLayout(s.kinds)
	s.obCols = make([]int, len(s.OrderBy))
	s.pathCol = -1
	for i, e := range s.OrderBy {
		switch e.Kind {
		case OrderLit:
			if e.Lit == "" {
				return nil, fmt.Errorf("jstar: table %s: empty literal in orderby", name)
			}
			s.obCols[i] = -1
		case OrderSeq, OrderPar:
			pos := s.ColumnIndex(e.Field)
			if pos < 0 {
				return nil, fmt.Errorf("jstar: table %s: orderby references unknown column %q", name, e.Field)
			}
			s.obCols[i] = pos
			if s.pathCol < 0 {
				s.pathCol = pos
			}
		}
	}
	return s, nil
}

// PathColumn returns the column position of the first seq/par orderby
// entry — the most significant data-dependent component of the table's
// Delta-tree path — or -1 when the orderby list is all literals. It keys
// the precomputed path sort key tuples carry for the step-boundary flush.
func (s *Schema) PathColumn() int { return s.pathCol }

// MustSchema is NewSchema that panics on error; for package-level tables.
func MustSchema(name string, cols []Column, orderBy []OrderEntry) *Schema {
	s, err := NewSchema(name, cols, orderBy)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// ColumnIndex returns the position of the named column, or -1. Tables have
// a handful of columns, so a scan (string equality compares lengths first)
// beats hashing the name — Tuple.Get runs once per field a rule body reads.
func (s *Schema) ColumnIndex(name string) int {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// KeyColumns returns positions of the primary-key columns (may be empty).
func (s *Schema) KeyColumns() []int { return s.keyCols }

// HasPrimaryKey reports whether a `->` key was declared.
func (s *Schema) HasPrimaryKey() bool { return len(s.keyCols) > 0 }

// OrderByColumn returns the column position used by orderby entry i, or -1
// if that entry is a literal.
func (s *Schema) OrderByColumn(i int) int { return s.obCols[i] }

// SetID assigns the dense registry id; called once by the engine, at table
// declaration time — before any tuple of the schema exists, since tuples
// bake the id into their precomputed sort keys.
func (s *Schema) SetID(id int32) { s.id = id }

// ID returns the dense registry id (0 until registered).
func (s *Schema) ID() int32 { return s.id }

// String renders the schema as a JStar table declaration.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("table ")
	b.WriteString(s.Name)
	b.WriteByte('(')
	wroteArrow := false
	for i, c := range s.Columns {
		if i > 0 {
			if !wroteArrow && !c.Key && i > 0 && s.Columns[i-1].Key {
				b.WriteString(" -> ")
				wroteArrow = true
			} else {
				b.WriteString(", ")
			}
		}
		b.WriteString(c.Kind.String())
		b.WriteByte(' ')
		b.WriteString(c.Name)
	}
	b.WriteByte(')')
	if len(s.OrderBy) > 0 {
		b.WriteString(" orderby (")
		for i, e := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}
