package core

import (
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// A program's initial puts are kept in call order as two sequences: Put's
// tuples (Program.initial) and PutNew's all-scalar rows, whose words go to
// a rowLog. A rowRun is a run of consecutive PutNew rows of one table,
// anchored at the count of tuples Put before it, so seed interleaves the
// two exactly as the calls did. A program of a million PutNew rows of one
// table is one run and its words; no tuple exists until the run needs one.

// rowChunkWords is the size of one rowLog chunk: 32 KiB of words.
const rowChunkWords = 4096

// rowRun is n consecutive initial rows of table s, seeded after the first
// `after` initial tuples.
type rowRun struct {
	s     *tuple.Schema
	after int
	n     int
}

// rowLog holds initial rows as their words, row after row, in fixed-size
// chunks: the log grows by one chunk at a time, never by copying, and holds
// no pointer the collector would scan. A row never straddles two chunks.
// Only seed reads it, so a program stays re-runnable.
type rowLog struct {
	chunks [][]uint64
}

// add appends the words of New(s, fields...) — it panics as New does.
func (l *rowLog) add(s *tuple.Schema, fields []tuple.Value) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1])+len(fields) > rowChunkWords {
		l.chunks = append(l.chunks, make([]uint64, 0, rowChunkWords))
		n++
	}
	l.chunks[n-1] = tuple.AppendWords(l.chunks[n-1], s, fields...)
}

// rowCursor reads a rowLog's rows in order.
type rowCursor struct {
	chunks [][]uint64
	c, at  int
}

// next returns the next row's n words, valid until the log changes.
func (rc *rowCursor) next(n int) []uint64 {
	for rc.at+n > len(rc.chunks[rc.c]) { // the row starts the next chunk
		rc.c++
		rc.at = 0
	}
	ws := rc.chunks[rc.c][rc.at : rc.at+n : rc.at+n]
	rc.at += n
	return ws
}

// seed performs the program's initial puts on the coordinator slot, in
// call order, and flushes them into the Delta tree. Put's tuples go
// through put. So does every PutNew row, built into its tuple here, unless
// its table lets seedRows write it into the store directly.
func (r *Run) seed() {
	p := r.prog
	put := p.pseudoRule("put")
	rows := rowCursor{chunks: p.rows.chunks}
	next := 0
	for _, run := range p.runs {
		for _, t := range p.initial[next:run.after] {
			r.put(put, nil, t, 0)
		}
		next = run.after
		r.seedRows(put, run, &rows)
	}
	for _, t := range p.initial[next:] {
		r.put(put, nil, t, 0)
	}
	r.endStep()
}

// seedRows seeds one run of initial rows. put would insert a row of a
// -noDelta table straight into Gamma and, were no rule triggered by the
// table, do nothing else; when that table's store is a gamma.RowInserter,
// seedRows does the same with the row's values, never building its tuple,
// and counts what put would count: every row in the table's "put" cell, a
// rejected row as a duplicate, and the table's dirty and prefix-dirty
// marks for the rows stored. Every other run is seeded tuple by tuple
// through put.
func (r *Run) seedRows(put int, run rowRun, rows *rowCursor) {
	s, n := run.s, run.s.Arity()
	var st gamma.RowInserter
	if r.tableStats(s) != nil { // else put panics on the first tuple
		if id := s.ID(); r.noDelta[id] && !r.noGamma[id] && len(r.rulesByID[id]) == 0 {
			st, _ = r.gammaDB.Table(s).(gamma.RowInserter)
		}
	}
	if st == nil {
		for range run.n {
			r.put(put, nil, tuple.FromWords(s, rows.next(n)), 0)
		}
		return
	}
	id := s.ID()
	sl := &r.slots[0]
	r.cell(sl, put, id).Add(int64(run.n))
	track := r.prefixTrack.Load() && n > 0
	row := make([]tuple.Value, n)
	var mask uint64
	stored := 0
	for range run.n {
		for i, w := range rows.next(n) {
			row[i] = s.WordValue(i, w)
		}
		if st.InsertRow(row) {
			stored++
			if track {
				mask |= 1 << PrefixBucket(row[0])
			}
		}
	}
	if dups := run.n - stored; dups > 0 {
		sl.counts[id].Duplicates.Add(int64(dups))
	}
	if stored > 0 {
		r.dirtyByID[id].Store(true)
		if mask != 0 {
			r.prefixDirty[id].Or(mask)
		}
	}
}
