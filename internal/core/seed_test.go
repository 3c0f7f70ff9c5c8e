package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// Program.PutNew must seed the run Put(tuple.New(...)) of the same fields
// seeds, whether its rows go into a store as words or are built into
// tuples at seed. These tests write one seed script both ways and compare
// everything a run exposes.

// seedOp is one initial put of a seed script. put marks the ops that stay
// Put(tuple.New(...)) in the PutNew spelling, so the two kinds of call
// interleave.
type seedOp struct {
	table  string
	fields []tuple.Value
	put    bool
}

// seedScript interleaves rows of M (four ints), F (an int and a float) and
// S (a string-bearing table, which PutNew builds at once), Put and PutNew
// calls, within one table too. It holds duplicates of both spellings, an
// int widened into F's float column, and invalid Values, which take their
// column's zero.
func seedScript() []seedOp {
	i, f := tuple.Int, tuple.Float
	var ops []seedOp
	m := func(put bool, a, b, c int64, v tuple.Value) {
		ops = append(ops, seedOp{"M", []tuple.Value{i(a), i(b), i(c), v}, put})
	}
	for k := int64(0); k < 12; k++ {
		m(k%5 == 3, k%2, k/4, k%4, i(k*7%11))
	}
	ops = append(ops,
		seedOp{"S", []tuple.Value{tuple.String_("first"), i(1)}, false},
		seedOp{"F", []tuple.Value{i(1), i(2)}, false},    // 2 widened to 2.0
		seedOp{"F", []tuple.Value{i(1), f(2)}, true},     // the same row: a duplicate
		seedOp{"F", []tuple.Value{i(2), {}}, false},      // 0.0
		seedOp{"F", []tuple.Value{i(3), f(-1.5)}, false}, // a float as it is
		seedOp{"S", []tuple.Value{{}, i(2)}, true},       // ""
		seedOp{"F", []tuple.Value{i(4), i(-3)}, false},   //
		seedOp{"S", []tuple.Value{tuple.String_("last"), {}}, false})
	m(false, 1, 3, 3, tuple.Value{}) // v = 0
	m(false, 1, 3, 3, i(0))          // the same row: a duplicate
	m(true, 0, 0, 0, i(0))           // a Put duplicate of the first row
	m(false, 0, 0, 0, i(0))          // and a PutNew one
	for k := int64(0); k < 4; k++ {
		m(k == 2, 0, 3, k, i(100+k))
	}
	m(false, 0, 0, 3, i(77))
	return ops
}

// seedCase is one point of the parity test's axes.
type seedCase struct {
	store   string // M's store kind; F's too, bar dense3d
	noDelta bool   // M and F are -noDelta
	rule    bool   // a rule triggered by M
	threads int
}

func (c seedCase) String() string {
	return fmt.Sprintf("%s/noDelta=%v/rule=%v/threads=%d", c.store, c.noDelta, c.rule, c.threads)
}

func (c seedCase) options() Options {
	fStore := c.store
	if strings.HasPrefix(fStore, "dense3d") {
		fStore = "tree"
	}
	o := Options{
		Threads:   c.threads,
		Quiet:     false,
		StorePlan: gamma.StorePlan{"M": c.store, "F": fStore},
	}
	if c.noDelta {
		o.NoDelta = []string{"M", "F"}
	}
	return o
}

// seedProgram declares M, F, S and Out, and the rule if c asks for one,
// and writes ops with PutNew (viaNew) or with Put(tuple.New(...)).
func seedProgram(c seedCase, ops []seedOp, viaNew bool) *Program {
	p := NewProgram()
	cols := func(kinds ...tuple.Kind) []tuple.Column {
		out := make([]tuple.Column, len(kinds))
		for i, k := range kinds {
			out[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: k, Key: i < len(kinds)-1}
		}
		return out
	}
	tables := map[string]*tuple.Schema{
		"M": p.Table("M", cols(tuple.KindInt, tuple.KindInt, tuple.KindInt, tuple.KindInt), []tuple.OrderEntry{tuple.Lit("M")}),
		"F": p.Table("F", cols(tuple.KindInt, tuple.KindFloat), []tuple.OrderEntry{tuple.Lit("F")}),
		"S": p.Table("S", cols(tuple.KindString, tuple.KindInt), []tuple.OrderEntry{tuple.Lit("S")}),
	}
	out := p.Table("Out", cols(tuple.KindInt), []tuple.OrderEntry{tuple.Lit("Out")})
	p.Order("M", "F", "S", "Out")
	if c.rule {
		p.Rule("fromM", tables["M"], func(x *Ctx, t *tuple.Tuple) {
			x.Println(t.String())
			x.PutNew(out, tuple.Int(t.Field(3).AsInt()%5))
		})
	}
	for _, op := range ops {
		if viaNew && !op.put {
			p.PutNew(tables[op.table], op.fields...)
		} else {
			p.Put(tuple.New(tables[op.table], op.fields...))
		}
	}
	return p
}

// observed is everything the parity test compares of one run.
type observed struct {
	Scans    map[string][]string
	Output   []string
	Stats    map[string][7]int64
	Versions map[string]int64
	Flow     map[[2]string]int64
	Firings  map[string]int64
	Err      string
}

func observe(t *testing.T, p *Program, opts Options) observed {
	t.Helper()
	r, err := p.Execute(opts)
	if r == nil {
		t.Fatal(err)
	}
	o := observed{Scans: map[string][]string{}, Stats: map[string][7]int64{}, Versions: map[string]int64{}}
	if err != nil {
		o.Err = err.Error()
	}
	for _, s := range p.Tables() {
		var rows []string
		r.Gamma().Table(s).Scan(func(x *tuple.Tuple) bool {
			rows = append(rows, x.String())
			return true
		})
		o.Scans[s.Name] = rows
		st := r.Stats().Tables[s.Name]
		o.Stats[s.Name] = [7]int64{st.Puts.Load(), st.Duplicates.Load(), st.Triggers.Load(), st.Queries.Load(),
			st.IndexedQueries.Load(), st.PrefixLenSum.Load(), st.MinPrefixLen.Load()}
		o.Versions[s.Name] = r.Stats().TableVersions[s.Name].Load()
	}
	o.Output = r.Output()
	if opts.Threads > 1 {
		slices.Sort(o.Output) // a parallel step's lines come in any order
	}
	o.Flow = r.Stats().FlowEdges()
	o.Firings = r.Stats().RuleFirings()
	return o
}

// seedMarks seeds a run with prefix tracking armed and returns its
// step-dirty flags and prefix-dirty masks, by table.
func seedMarks(t *testing.T, p *Program, opts Options) map[string][2]uint64 {
	t.Helper()
	r, err := p.NewRun(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.finish(time.Now()) // shuts the run's pool down
	r.prefixTrack.Store(true)
	r.seed()
	marks := map[string][2]uint64{}
	for _, s := range p.Tables() {
		var dirty uint64
		if r.dirtyByID[s.ID()].Load() {
			dirty = 1
		}
		marks[s.Name] = [2]uint64{dirty, r.prefixDirty[s.ID()].Load()}
	}
	return marks
}

func TestPutNewSeedParity(t *testing.T) {
	ops := seedScript()
	for _, store := range []string{"tree", "hash:1", "columnar", "columnar:2", "dense3d:2,4,4"} {
		for _, noDelta := range []bool{true, false} {
			for _, rule := range []bool{false, true} {
				for _, threads := range []int{1, 2} {
					c := seedCase{store, noDelta, rule, threads}
					t.Run(c.String(), func(t *testing.T) {
						want := observe(t, seedProgram(c, ops, false), c.options())
						got := observe(t, seedProgram(c, ops, true), c.options())
						if want.Err != "" || got.Err != "" {
							t.Fatalf("runs failed: Put %q, PutNew %q", want.Err, got.Err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("PutNew seeded\n%+v\nPut seeded\n%+v", got, want)
						}
						if m := want.Flow[[2]string{"put", "M"}]; m != int64(countOps(ops, "M")) {
							t.Errorf("put->M edge = %d, want %d", m, countOps(ops, "M"))
						}
						wm := seedMarks(t, seedProgram(c, ops, false), c.options())
						gm := seedMarks(t, seedProgram(c, ops, true), c.options())
						if !maps.Equal(gm, wm) {
							t.Errorf("dirty and prefix-dirty marks after seed: PutNew %v, Put %v", gm, wm)
						}
					})
				}
			}
		}
	}
}

func countOps(ops []seedOp, table string) int {
	n := 0
	for _, op := range ops {
		if op.table == table {
			n++
		}
	}
	return n
}

// A key bound to two values fails the run with the same error whichever
// way its rows were put.
func TestPutNewSeedKeyBoundTwice(t *testing.T) {
	ops := []seedOp{
		{"M", []tuple.Value{tuple.Int(0), tuple.Int(1), tuple.Int(2), tuple.Int(3)}, false},
		{"M", []tuple.Value{tuple.Int(0), tuple.Int(1), tuple.Int(2), tuple.Int(4)}, false},
	}
	for _, noDelta := range []bool{true, false} {
		c := seedCase{"dense3d:2,4,4", noDelta, false, 1}
		want := observe(t, seedProgram(c, ops, false), c.options())
		got := observe(t, seedProgram(c, ops, true), c.options())
		if !strings.Contains(want.Err, "key (0,1,2) bound twice") || got.Err != want.Err {
			t.Errorf("%v: PutNew run error %q, Put run error %q", c, got.Err, want.Err)
		}
	}
}

// PutNew checks its fields at the call, as tuple.New does.
func TestPutNewPanicsAsNew(t *testing.T) {
	p := NewProgram()
	f := p.Table("F", []tuple.Column{{Name: "k", Kind: tuple.KindInt}, {Name: "x", Kind: tuple.KindFloat}}, nil)
	for _, fields := range [][]tuple.Value{
		{tuple.Int(1)},
		{tuple.Int(1), tuple.Bool(true)},
		{tuple.Float(1), tuple.Float(2)},
	} {
		newMsg, putMsg := panicText(func() { tuple.New(f, fields...) }), panicText(func() { p.PutNew(f, fields...) })
		if newMsg == "" || putMsg != newMsg {
			t.Errorf("PutNew%v panicked %q, New %q", fields, putMsg, newMsg)
		}
	}
	if len(p.runs) != 0 {
		t.Errorf("a rejected row was logged: %v", p.runs)
	}
}

func panicText(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}

// A program seeds as often as it is run: the row log is only read.
func TestPutNewProgramReruns(t *testing.T) {
	c := seedCase{"columnar", true, false, 1}
	p := seedProgram(c, seedScript(), true)
	first := observe(t, p, c.options())
	if again := observe(t, p, c.options()); !reflect.DeepEqual(again, first) {
		t.Errorf("second run\n%+v\nfirst run\n%+v", again, first)
	}
}

// Rows of several arities share the log's chunks; none straddles two, and
// each comes back as it went in.
func TestRowLogChunks(t *testing.T) {
	p := NewProgram()
	one := p.Table("One", []tuple.Column{{Name: "a", Kind: tuple.KindInt}}, nil)
	three := p.Table("Three", []tuple.Column{{Name: "a", Kind: tuple.KindInt}, {Name: "b", Kind: tuple.KindBool}, {Name: "c", Kind: tuple.KindFloat}}, nil)
	var want []*tuple.Tuple
	for k := range int64(3 * rowChunkWords) {
		var fields []tuple.Value
		s := one
		if k%3 != 0 {
			s, fields = three, []tuple.Value{tuple.Int(k), tuple.Bool(k%2 == 0), tuple.Float(float64(k) / 4)}
		} else {
			fields = []tuple.Value{tuple.Int(-k)}
		}
		p.PutNew(s, fields...)
		want = append(want, tuple.New(s, fields...))
	}
	for _, c := range p.rows.chunks {
		if cap(c) != rowChunkWords {
			t.Fatalf("a chunk of %d words, want %d", cap(c), rowChunkWords)
		}
	}
	rows := rowCursor{chunks: p.rows.chunks}
	k := 0
	for _, run := range p.runs {
		for range run.n {
			if got := tuple.FromWords(run.s, rows.next(run.s.Arity())); !got.Equal(want[k]) {
				t.Fatalf("row %d read back as %v, want %v", k, got, want[k])
			}
			k++
		}
	}
	if k != len(want) {
		t.Fatalf("read %d rows, want %d", k, len(want))
	}
}

// Seeding 100k rows into a Dense3D store through PutNew builds no tuple
// for them: the seed allocates a few objects, not one per row.
func TestPutNewSeedAllocations(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const side = 100
	p := NewProgram()
	m := p.Table("M", []tuple.Column{
		{Name: "a", Kind: tuple.KindInt, Key: true}, {Name: "b", Kind: tuple.KindInt, Key: true},
		{Name: "c", Kind: tuple.KindInt, Key: true}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("M")})
	p.GammaHint("M", gamma.NewDense3D(10, side, side))
	for a := range int64(10) {
		for b := range int64(side) {
			for c := range int64(side) {
				p.PutNew(m, tuple.Int(a), tuple.Int(b), tuple.Int(c), tuple.Int(a+b+c))
			}
		}
	}
	opts := Options{NoDelta: []string{"M"}, Threads: 1}
	var runs []*Run
	for range 2 { // AllocsPerRun(1, ...) calls its function twice
		r, err := p.NewRun(opts)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	allocs := testing.AllocsPerRun(1, func() {
		r := runs[0]
		runs = runs[1:]
		r.seed()
	})
	if allocs >= 100 {
		t.Errorf("seeding %d Dense3D rows allocated %v objects, want < 100", 10*side*side, allocs)
	}
}
