package gamma

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/jstar-lang/jstar/internal/tuple"
)

// This file implements the paper's "native-arrays" data structure
// optimisation (§6.4): tables with dense, limited-range integer keys and a
// single dependent value are stored in flat arrays instead of tree sets.
// The §6.6 Median program additionally rolls the array over two iterations
// (a Gamma garbage-collection optimisation that keeps only the 'current'
// and 'next' copies).

// Dense3D stores a table of shape
//
//	table T(int a, int b, int c -> int value)
//
// with a ∈ [0,na), b ∈ [0,nb), c ∈ [0,nc), as na flat int64 arrays — the
// analogue of the Java 2D int arrays used for each matrix in §6.4.
// Typed accessors bypass tuple construction in inner loops, exactly like the
// generated array code; the Store interface remains available for queries,
// and InsertRow (RowInserter) stores a row of values with no tuple at all. The
// present bitmap is the only record of which cells are set: SetInt touches
// no counter shared across cells, and Len counts the bitmap's bits.
type Dense3D struct {
	schema     *tuple.Schema
	na, nb, nc int
	vals       []int64  // atomic access
	present    []uint32 // atomic bitmap, 1 bit per cell
}

// NewDense3D returns a StoreFactory for a 4-column int table with key
// ranges [0,na) x [0,nb) x [0,nc).
func NewDense3D(na, nb, nc int) StoreFactory {
	return func(s *tuple.Schema) Store {
		if s.Arity() != 4 {
			panic(fmt.Sprintf("jstar: Dense3D needs 4 int columns, table %s has %d", s.Name, s.Arity()))
		}
		for _, c := range s.Columns {
			if c.Kind != tuple.KindInt {
				panic(fmt.Sprintf("jstar: Dense3D column %s must be int", c.Name))
			}
		}
		n := na * nb * nc
		return &Dense3D{
			schema: s, na: na, nb: nb, nc: nc,
			vals:    make([]int64, n),
			present: make([]uint32, (n+31)/32),
		}
	}
}

func (d *Dense3D) StoreKind() string {
	return fmt.Sprintf("dense3d:%d,%d,%d", d.na, d.nb, d.nc)
}

func (d *Dense3D) idx(a, b, c int64) int {
	if a < 0 || a >= int64(d.na) || b < 0 || b >= int64(d.nb) || c < 0 || c >= int64(d.nc) {
		panic(fmt.Sprintf("jstar: Dense3D index (%d,%d,%d) out of range (%d,%d,%d)",
			a, b, c, d.na, d.nb, d.nc))
	}
	return (int(a)*d.nb+int(b))*d.nc + int(c)
}

// SetInt writes value at key (a,b,c); the typed fast path for generated
// inner loops. It reports whether the cell was newly set.
func (d *Dense3D) SetInt(a, b, c, value int64) bool {
	i := d.idx(a, b, c)
	atomic.StoreInt64(&d.vals[i], value)
	w, bit := i/32, uint32(1)<<(i%32)
	for {
		old := atomic.LoadUint32(&d.present[w])
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(&d.present[w], old, old|bit) {
			return true
		}
	}
}

// Plane returns a read-only, row-major view of slice a of the key space —
// the generated code's direct int[][] access (§6.4). Callers must not use
// a plane that is still being written concurrently; the matrix-multiply
// rules read operand planes that were fully loaded in an earlier causal
// step, which is exactly the access pattern the causality law guarantees.
func (d *Dense3D) Plane(a int64) []int64 {
	if a < 0 || a >= int64(d.na) {
		panic(fmt.Sprintf("jstar: Dense3D plane %d out of range %d", a, d.na))
	}
	base := int(a) * d.nb * d.nc
	return d.vals[base : base+d.nb*d.nc]
}

// GetInt reads the value at key (a,b,c); ok is false for unset cells.
func (d *Dense3D) GetInt(a, b, c int64) (int64, bool) {
	i := d.idx(a, b, c)
	if atomic.LoadUint32(&d.present[i/32])&(uint32(1)<<(i%32)) == 0 {
		return 0, false
	}
	return atomic.LoadInt64(&d.vals[i]), true
}

// Insert stores a 4-field tuple (a, b, c -> value).
func (d *Dense3D) Insert(t *tuple.Tuple) bool {
	return d.insert(t.Field(0).AsInt(), t.Field(1).AsInt(), t.Field(2).AsInt(), t.Field(3).AsInt())
}

// InsertRow stores the row (a, b, c, value) as Insert stores its tuple.
func (d *Dense3D) InsertRow(row []tuple.Value) bool {
	return d.insert(row[0].AsInt(), row[1].AsInt(), row[2].AsInt(), row[3].AsInt())
}

// insert sets cell (a,b,c) to v unless it is set: to v already (a
// duplicate), or to another value (a primary-key violation, which panics).
func (d *Dense3D) insert(a, b, c, v int64) bool {
	i := d.idx(a, b, c)
	if atomic.LoadUint32(&d.present[i/32])&(uint32(1)<<(i%32)) != 0 {
		// Key already present: duplicate tuple if the value agrees,
		// otherwise the primary-key invariant is broken.
		if atomic.LoadInt64(&d.vals[i]) == v {
			return false
		}
		panic(fmt.Sprintf("jstar: table %s: key (%d,%d,%d) bound twice with different values",
			d.schema.Name, a, b, c))
	}
	return d.SetInt(a, b, c, v)
}

// Len returns the number of set cells: the present bitmap's population
// count, a pass over one bit per cell. Checkpoints, snapshots and probes
// call it; the inner loops never do.
func (d *Dense3D) Len() int {
	n := 0
	for w := range d.present {
		n += bits.OnesCount32(atomic.LoadUint32(&d.present[w]))
	}
	return n
}

// Scan visits set cells in key order, materialising tuples on demand.
func (d *Dense3D) Scan(fn func(*tuple.Tuple) bool) {
	for a := 0; a < d.na; a++ {
		for b := 0; b < d.nb; b++ {
			for c := 0; c < d.nc; c++ {
				if v, ok := d.GetInt(int64(a), int64(b), int64(c)); ok {
					t := tuple.New(d.schema, tuple.Int(int64(a)), tuple.Int(int64(b)),
						tuple.Int(int64(c)), tuple.Int(v))
					if !fn(t) {
						return
					}
				}
			}
		}
	}
}

// Select narrows the scanned key ranges using the equality prefix.
func (d *Dense3D) Select(q Query, fn func(*tuple.Tuple) bool) {
	loA, hiA := 0, d.na
	loB, hiB := 0, d.nb
	loC, hiC := 0, d.nc
	if len(q.Prefix) > 0 {
		a := int(q.Prefix[0].AsInt())
		loA, hiA = a, a+1
	}
	if len(q.Prefix) > 1 {
		b := int(q.Prefix[1].AsInt())
		loB, hiB = b, b+1
	}
	if len(q.Prefix) > 2 {
		c := int(q.Prefix[2].AsInt())
		loC, hiC = c, c+1
	}
	for a := loA; a < hiA; a++ {
		for b := loB; b < hiB; b++ {
			for c := loC; c < hiC; c++ {
				v, ok := d.GetInt(int64(a), int64(b), int64(c))
				if !ok {
					continue
				}
				t := tuple.New(d.schema, tuple.Int(int64(a)), tuple.Int(int64(b)),
					tuple.Int(int64(c)), tuple.Int(v))
				if q.Matches(t) && !fn(t) {
					return
				}
			}
		}
	}
}

// RollingFloatArray stores a table of shape
//
//	table Data(int iter, int index -> double value)
//	  orderby (Int, seq iter, Data, seq index)
//
// as double[2][n] with iter taken modulo 2 — the §6.6 Median optimisation.
// Only the two most recent iterations are retained; inserting iteration i+2
// implicitly garbage-collects iteration i.
type RollingFloatArray struct {
	schema *tuple.Schema
	n      int
	vals   [2][]uint64 // float64 bits, atomic access
	count  atomic.Int64
}

// NewRollingFloatArray returns a StoreFactory for an (int iter, int index ->
// double value) table with index ∈ [0, n).
func NewRollingFloatArray(n int) StoreFactory {
	return func(s *tuple.Schema) Store {
		if s.Arity() != 3 || s.Columns[0].Kind != tuple.KindInt ||
			s.Columns[1].Kind != tuple.KindInt || s.Columns[2].Kind != tuple.KindFloat {
			panic(fmt.Sprintf("jstar: RollingFloatArray needs (int, int -> double), got %s", s))
		}
		r := &RollingFloatArray{schema: s, n: n}
		r.vals[0] = make([]uint64, n)
		r.vals[1] = make([]uint64, n)
		return r
	}
}

func (r *RollingFloatArray) StoreKind() string { return fmt.Sprintf("rolling:%d", r.n) }

// SetF writes value at (iter, index); the typed fast path.
func (r *RollingFloatArray) SetF(iter, index int64, value float64) {
	atomic.StoreUint64(&r.vals[iter&1][index], math.Float64bits(value))
}

// GetF reads the value at (iter, index).
func (r *RollingFloatArray) GetF(iter, index int64) float64 {
	return math.Float64frombits(atomic.LoadUint64(&r.vals[iter&1][index]))
}

// Size returns the array length n.
func (r *RollingFloatArray) Size() int { return r.n }

// Insert stores a (iter, index -> value) tuple.
func (r *RollingFloatArray) Insert(t *tuple.Tuple) bool {
	iter, index := t.Field(0).AsInt(), t.Field(1).AsInt()
	if index < 0 || index >= int64(r.n) {
		panic(fmt.Sprintf("jstar: table %s index %d out of [0,%d)", r.schema.Name, index, r.n))
	}
	r.SetF(iter, index, t.Field(2).AsFloat())
	r.count.Add(1)
	return true
}

// Len returns the number of inserts performed (tuples logically stored;
// rolled-over iterations are no longer retrievable but did exist).
func (r *RollingFloatArray) Len() int { return int(r.count.Load()) }

// Scan visits the two retained iterations' cells as tuples (iter reported
// as the parity 0 or 1, since older iterations have been collected).
func (r *RollingFloatArray) Scan(fn func(*tuple.Tuple) bool) {
	for iter := int64(0); iter < 2; iter++ {
		for i := 0; i < r.n; i++ {
			t := tuple.New(r.schema, tuple.Int(iter), tuple.Int(int64(i)),
				tuple.Float(r.GetF(iter, int64(i))))
			if !fn(t) {
				return
			}
		}
	}
}

// Select supports prefix queries on (iter) or (iter, index).
func (r *RollingFloatArray) Select(q Query, fn func(*tuple.Tuple) bool) {
	if len(q.Prefix) >= 2 {
		iter, index := q.Prefix[0].AsInt(), q.Prefix[1].AsInt()
		t := tuple.New(r.schema, tuple.Int(iter), tuple.Int(index),
			tuple.Float(r.GetF(iter, index)))
		if q.Matches(t) {
			fn(t)
		}
		return
	}
	if len(q.Prefix) == 1 {
		iter := q.Prefix[0].AsInt()
		for i := 0; i < r.n; i++ {
			t := tuple.New(r.schema, tuple.Int(iter), tuple.Int(int64(i)),
				tuple.Float(r.GetF(iter, int64(i))))
			if q.Matches(t) && !fn(t) {
				return
			}
		}
		return
	}
	r.Scan(func(t *tuple.Tuple) bool {
		if q.Matches(t) {
			return fn(t)
		}
		return true
	})
}
