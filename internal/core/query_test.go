package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/testrace"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// kindSpecs returns one store spec per kind in gamma.StoreKinds() that
// FactoryFor accepts for schema s — the "every store kind" axis of the
// tests below. Parameterised kinds get parameters sized for column 0 in
// [0, 63].
func kindSpecs(t *testing.T, s *tuple.Schema) []string {
	t.Helper()
	params := map[string]string{"arrayhash": ":0,0,63", "dense3d": ":64,4,4", "rolling": ":64"}
	var specs []string
	for _, kind := range gamma.StoreKinds() {
		spec := kind + params[kind]
		if _, err := gamma.FactoryFor(spec, s); err == nil {
			specs = append(specs, spec)
		}
	}
	if len(specs) < 5 {
		t.Fatalf("only %v accept %s; the test would cover too little", specs, s)
	}
	return specs
}

// accProgram declares Acc(k, v), seeded with rows Acc(i%8, i) for i < n,
// and a Go(n) trigger table ordered before nothing else; the caller adds the
// rule under test on Go.
func accProgram(n int) (p *Program, goT, acc *tuple.Schema) {
	p = NewProgram()
	goT = p.Table("Go", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Go")})
	acc = p.Table("Acc", []tuple.Column{{Name: "k", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Acc")})
	p.Order("Acc", "Go")
	for i := 0; i < n; i++ {
		p.Put(tuple.New(acc, tuple.Int(int64(i%8)), tuple.Int(int64(i))))
	}
	return p, goT, acc
}

// TestPutIntoIteratedTable pins a deadlock the collect-then-visit read path
// removes by construction: a rule iterating a -noDelta table and putting
// into it from the visitor. When visitors ran inside Store.Select, the tree
// (the Sequential default), inthash and columnar stores held their read
// lock across the callback and the inline insert waited for the write lock
// forever. The visitor must see the snapshot taken before its own puts.
func TestPutIntoIteratedTable(t *testing.T) {
	_, _, accSchema := accProgram(0)
	for _, spec := range kindSpecs(t, accSchema) {
		for _, strat := range []exec.Strategy{exec.Sequential, exec.Auto} {
			for _, prefix := range [][]tuple.Value{{tuple.Int(3)}, nil} {
				name := fmt.Sprintf("%s/%s/ForEach/prefix%d", spec, strat, len(prefix))
				t.Run(name, func(t *testing.T) {
					const rows = 64
					p, goT, acc := accProgram(rows)
					visited := 0
					p.Rule("grow", goT, func(c *Ctx, _ *tuple.Tuple) {
						c.ForEach(acc, gamma.Query{Prefix: prefix}, func(a *tuple.Tuple) bool {
							visited++
							c.PutNew(acc, a.Get("k"), tuple.Int(a.Int("v")+1000))
							return true
						})
					})
					p.Put(tuple.New(goT, tuple.Int(0)))
					done := make(chan error, 1)
					var run *Run
					go func() {
						var err error
						run, err = p.Execute(Options{Strategy: strat, NoDelta: []string{"Acc"},
							StorePlan: gamma.StorePlan{"Acc": spec}, Quiet: true})
						done <- err
					}()
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(20 * time.Second):
						t.Fatal("deadlock: the run did not finish (visitor's put waits on the iterated store's lock)")
					}
					want := rows
					if prefix != nil {
						want = rows / 8
					}
					if visited != want {
						t.Errorf("visitor saw %d tuples, want the %d present before its puts", visited, want)
					}
					if got := run.Gamma().Table(acc).Len(); got != rows+want {
						t.Errorf("Acc holds %d tuples, want %d", got, rows+want)
					}
				})
			}
		}
	}
}

// quiescedCtx runs p to completion under exec.Sequential and returns the
// coordinator's rule context, for driving queries directly.
func quiescedCtx(t *testing.T, p *Program, o Options) (*Run, *Ctx) {
	t.Helper()
	o.Strategy, o.Quiet = exec.Sequential, true
	run, err := p.Execute(o)
	if err != nil {
		t.Fatal(err)
	}
	return run, &run.slotCtx[0]
}

// TestQueryAllocationBudget: a steady-state query allocates nothing of its
// own on any store kind, with a prefix alone or with a Where that captures
// a local — the prefix literal, the Where and the visitor stay on the
// caller's stack. What remains is what the store hands out: inthash and
// columnar keep rows, not tuples, and materialise exactly one object per
// row they return. Counts, not timings.
func TestQueryAllocationBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, _, accSchema := accProgram(0)
	for _, spec := range kindSpecs(t, accSchema) {
		t.Run(spec, func(t *testing.T) {
			p, _, acc := accProgram(64) // 8 rows per key
			_, c := quiescedCtx(t, p, Options{StorePlan: gamma.StorePlan{"Acc": spec}})
			perRow := 0.0 // allocations per row the store returns
			switch gamma.KindName(spec) {
			case "inthash", "columnar":
				perRow = 1
			}
			var sink int
			budget := func(name string, rows float64, f func()) {
				t.Helper()
				if got := testing.AllocsPerRun(100, f); got != rows*perRow {
					t.Errorf("%s: %v allocations per query, want %v", name, got, rows*perRow)
				}
			}
			lim := int64(32) // half of each key's rows pass v >= lim
			budget("GetUniq prefix", 1, func() {
				if c.GetUniq(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(3)}}) != nil {
					sink++
				}
			})
			budget("GetUniq where", 8, func() {
				lim := lim
				q := gamma.Query{Prefix: []tuple.Value{tuple.Int(3)},
					Where: func(a *tuple.Tuple) bool { return a.Field(1).AsInt() >= lim }}
				if c.GetUniq(acc, q) != nil {
					sink++
				}
			})
			budget("ForEach prefix", 8, func() {
				n := 0
				c.ForEach(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(5)}},
					func(*tuple.Tuple) bool { n++; return true })
				sink += n
			})
			budget("ForEach where", 8, func() {
				lim, n := lim, 0
				c.ForEach(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(5)},
					Where: func(a *tuple.Tuple) bool { return a.Field(1).AsInt() >= lim }},
					func(*tuple.Tuple) bool { n++; return true })
				sink += n
			})
			budget("Exists prefix", 1, func() {
				if c.Exists(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(1)}}) {
					sink++
				}
			})
			budget("Exists where", 8, func() {
				lim := lim
				if c.Exists(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(1)},
					Where: func(a *tuple.Tuple) bool { return a.Field(1).AsInt() >= lim }}) {
					sink++
				}
			})
			budget("Count prefix", 8, func() {
				sink += c.Count(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(7)}})
			})
			budget("Count where", 8, func() {
				lim := lim
				sink += c.Count(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(7)},
					Where: func(a *tuple.Tuple) bool { return a.Field(1).AsInt() >= lim }})
			})
			if sink == 0 {
				t.Error("the queries matched nothing")
			}
		})
	}
}

// TestDijkstraFiringAllocatesOnlyItsTuples fires the §6.5 rule body — probe
// Done, put Done, ForEach over the vertex's edges with a nested GetUniq and
// a put per edge — and counts allocations: the Done tuple and one Estimate
// per outgoing edge, nothing else.
func TestDijkstraFiringAllocatesOnlyItsTuples(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const vertices, degree = 400, 3
	p := NewProgram()
	col := func(names ...string) []tuple.Column {
		cs := make([]tuple.Column, len(names))
		for i, n := range names {
			cs[i] = tuple.Column{Name: n, Kind: tuple.KindInt}
		}
		return cs
	}
	edge := p.Table("Edge", col("from", "to", "value"), []tuple.OrderEntry{tuple.Lit("Edge")})
	est := p.Table("Estimate", col("vertex", "distance"),
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("distance"), tuple.Lit("Estimate")})
	done := p.Table("Done", col("vertex", "distance"),
		[]tuple.OrderEntry{tuple.Lit("Int"), tuple.Seq("distance"), tuple.Lit("Done")})
	p.Order("Edge", "Int")
	p.Order("Estimate", "Done")
	p.GammaHint("Edge", gamma.NewHashStore(1))
	p.GammaHint("Done", gamma.NewHashStore(1))
	body := func(c *Ctx, dist *tuple.Tuple) {
		v, d := dist.Get("vertex"), dist.Int("distance")
		already := c.GetUniq(done, gamma.Query{
			Prefix: []tuple.Value{v},
			Where:  func(t *tuple.Tuple) bool { return t.Int("distance") < d },
		})
		if already == nil {
			c.PutNew(done, v, tuple.Int(d))
			c.ForEach(edge, gamma.Query{Prefix: []tuple.Value{v}}, func(e *tuple.Tuple) bool {
				if c.GetUniq(done, gamma.Query{Prefix: []tuple.Value{e.Get("to")}}) == nil {
					c.PutNew(est, e.Get("to"), tuple.Int(d+e.Int("value")))
				}
				return true
			})
		}
	}
	rule := p.Rule("dijkstra", est, body)
	// Done starts well filled, as in a run under way, so that its shards'
	// slices grow rarely enough to vanish from the per-firing average.
	const settled = 20000
	for v := 0; v < settled; v++ {
		p.Put(tuple.New(done, tuple.Int(int64(1000000+v)), tuple.Int(1)))
	}
	// Every vertex has `degree` edges to vertices no firing below settles.
	for v := 0; v < vertices; v++ {
		for k := 1; k <= degree; k++ {
			p.Put(tuple.New(edge, tuple.Int(int64(v)), tuple.Int(int64(vertices+v*degree+k)), tuple.Int(int64(k))))
		}
	}
	_, c := quiescedCtx(t, p, Options{NoDelta: []string{"Edge", "Done"}, NoGamma: []string{"Estimate"}})
	c.rule = rule
	triggers := make([]*tuple.Tuple, vertices)
	for v := range triggers {
		triggers[v] = tuple.New(est, tuple.Int(int64(v)), tuple.Int(10))
	}
	next := 0
	got := testing.AllocsPerRun(200, func() { // 201 firings, one fresh vertex each
		c.trigger = triggers[next]
		body(c, triggers[next])
		next++
	})
	if want := float64(1 + degree); got != want {
		t.Errorf("a Dijkstra-shaped firing made %v allocations, want %v (its Done and %d Estimates)", got, want, degree)
	}
	if n := c.run.gammaDB.Table(done).Len() - settled; n != next {
		t.Errorf("%d firings settled %d vertices", next, n)
	}
}

// TestNestedQueriesMatchClosureReference nests queries three deep through
// the Ctx — each level pushing its matches above the enclosing level's on
// the one scratch stack — and compares what the innermost visitor sees with
// the closure-inside-Select reference the Ctx used to be. Afterwards the
// scratch is empty and holds no pointer or value.
func TestNestedQueriesMatchClosureReference(t *testing.T) {
	_, _, accSchema := accProgram(0)
	for _, spec := range kindSpecs(t, accSchema) {
		t.Run(spec, func(t *testing.T) {
			p, _, acc := accProgram(64)
			run, c := quiescedCtx(t, p, Options{StorePlan: gamma.StorePlan{"Acc": spec}})
			st := run.Gamma().Table(acc)
			key := func(a *tuple.Tuple, add int64) []tuple.Value {
				return []tuple.Value{tuple.Int((a.Int("v") + add) % 8)}
			}
			odd := func(a *tuple.Tuple) bool { return a.Int("v")%2 == 1 }
			var got, want []string
			c.ForEach(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(2)}}, func(a *tuple.Tuple) bool {
				c.ForEach(acc, gamma.Query{Prefix: key(a, 1), Where: odd}, func(b *tuple.Tuple) bool {
					first := c.GetUniq(acc, gamma.Query{Prefix: key(b, 3)})
					n := c.Count(acc, gamma.Query{Prefix: key(b, 5), Where: odd})
					c.ForEach(acc, gamma.Query{Prefix: key(b, 2)}, func(d *tuple.Tuple) bool {
						got = append(got, fmt.Sprint(a, b, d, first, n))
						return d.Int("v") < 40 // early stop mid-range
					})
					return true
				})
				return true
			})
			st.Select(gamma.Query{Prefix: []tuple.Value{tuple.Int(2)}}, func(a *tuple.Tuple) bool {
				st.Select(gamma.Query{Prefix: key(a, 1), Where: odd}, func(b *tuple.Tuple) bool {
					var first *tuple.Tuple
					st.Select(gamma.Query{Prefix: key(b, 3)}, func(x *tuple.Tuple) bool { first = x; return false })
					n := 0
					st.Select(gamma.Query{Prefix: key(b, 5), Where: odd}, func(*tuple.Tuple) bool { n++; return true })
					st.Select(gamma.Query{Prefix: key(b, 2)}, func(d *tuple.Tuple) bool {
						want = append(want, fmt.Sprint(a, b, d, first, n))
						return d.Int("v") < 40
					})
					return true
				})
				return true
			})
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("nested Ctx queries saw %d results, the closure reference %d; or they differ", len(got), len(want))
			}
			if len(c.found) != 0 {
				t.Errorf("match stack holds %d entries after the queries returned", len(c.found))
			}
			for i, x := range c.found[:cap(c.found)] {
				if x != nil {
					t.Fatalf("match stack slot %d still pins %v", i, x)
				}
			}
			for i, v := range c.prefix[:cap(c.prefix)] {
				if v.Valid() {
					t.Fatalf("prefix scratch slot %d still holds %v", i, v)
				}
			}
		})
	}
}

// TestExistsDoesNotMaterialiseTheTable: Exists(Query{}) on a 100 k-row
// ordered table ends the store walk at the first row instead of collecting
// the table into the match stack.
func TestExistsDoesNotMaterialiseTheTable(t *testing.T) {
	for _, spec := range []string{"tree"} {
		p, _, acc := accProgram(100000)
		_, c := quiescedCtx(t, p, Options{StorePlan: gamma.StorePlan{"Acc": spec}})
		if !c.Exists(acc, gamma.Query{}) {
			t.Fatalf("%s: Exists(Query{}) = false on a populated table", spec)
		}
		if c.GetUniq(acc, gamma.Query{Prefix: []tuple.Value{tuple.Int(5)}}) == nil {
			t.Fatalf("%s: GetUniq missed key 5", spec)
		}
		if cap(c.found) > 8 {
			t.Errorf("%s: first-match queries grew the match stack to %d slots", spec, cap(c.found))
		}
	}
}

// TestCtxConcurrentPutsWithOwnerQueries backs the Ctx concurrency contract
// under -race: a rule's own helper goroutines Put on its Ctx — into a Delta
// table and a -noDelta table, the pvwatts reader's shape — while the firing
// goroutine keeps querying through the same Ctx.
func TestCtxConcurrentPutsWithOwnerQueries(t *testing.T) {
	for _, strat := range []exec.Strategy{exec.Sequential, exec.Auto} {
		t.Run(strat.String(), func(t *testing.T) {
			const helpers, each = 4, 300
			p, goT, acc := accProgram(64)
			out := p.Table("Out", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
				[]tuple.OrderEntry{tuple.Lit("Out")})
			p.Order("Go", "Out")
			queried := 0
			p.Rule("fanPuts", goT, func(c *Ctx, _ *tuple.Tuple) {
				var wg sync.WaitGroup
				for h := 0; h < helpers; h++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < each; i++ {
							n := int64(h*each + i)
							c.PutNew(out, tuple.Int(n))
							c.Put(tuple.New(acc, tuple.Int(n%8), tuple.Int(1000+n)))
						}
					}()
				}
				for i := 0; i < 200; i++ {
					k := tuple.Int(int64(i % 8))
					queried += c.Count(acc, gamma.Query{Prefix: []tuple.Value{k}})
					if c.GetUniq(acc, gamma.Query{Prefix: []tuple.Value{k}}) == nil {
						t.Error("owner's GetUniq missed a seeded key")
					}
				}
				wg.Wait()
			})
			p.Put(tuple.New(goT, tuple.Int(0)))
			run, err := p.Execute(Options{Strategy: strat, NoDelta: []string{"Acc"}, Quiet: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := run.Gamma().Table(out).Len(); got != helpers*each {
				t.Errorf("Out holds %d tuples, want %d", got, helpers*each)
			}
			if got := run.Gamma().Table(acc).Len(); got != 64+helpers*each {
				t.Errorf("Acc holds %d tuples, want %d", got, 64+helpers*each)
			}
			if queried < 200*8 {
				t.Errorf("owner's queries counted %d rows, want at least %d", queried, 200*8)
			}
		})
	}
}

// TestHashTableSnapshotOrderIsDeterministic: two identical Sequential runs
// leave a hash-stored table in the same Scan (and so Session.Snapshot)
// order — it used to be Go-map iteration order.
func TestHashTableSnapshotOrderIsDeterministic(t *testing.T) {
	var orders [2][]string
	for i := range orders {
		p, goT, acc := accProgram(500)
		p.Rule("grow", goT, func(c *Ctx, _ *tuple.Tuple) {
			c.ForEach(acc, gamma.Query{}, func(a *tuple.Tuple) bool {
				c.PutNew(acc, tuple.Int(a.Int("v")%61), tuple.Int(-1-a.Int("v")))
				return true
			})
		})
		p.Put(tuple.New(goT, tuple.Int(0)))
		run, _ := quiescedCtx(t, p, Options{StorePlan: gamma.StorePlan{"Acc": "hash"}})
		run.Gamma().Table(acc).Scan(func(a *tuple.Tuple) bool {
			orders[i] = append(orders[i], a.String())
			return true
		})
	}
	if len(orders[0]) != 1000 || !slices.Equal(orders[0], orders[1]) {
		t.Errorf("two identical runs scanned %d and %d tuples, or in different orders", len(orders[0]), len(orders[1]))
	}
}
