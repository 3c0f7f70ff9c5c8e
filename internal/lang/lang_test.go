package lang

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// run compiles src and executes it sequentially, returning the run.
func run(t *testing.T, src string, opts core.Options) *core.Run {
	t.Helper()
	p, err := CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := p.Execute(opts)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return r
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`table Ship(int frame -> int x) orderby (Int, seq frame) // cmt
	put new Ship(0, 10) /* block
	comment */ "str\n" 3.5 <= != `)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"table", "Ship", "(", "int", "frame", "->", "int", "x", ")",
		"orderby", "(", "Int", ",", "seq", "frame", ")",
		"put", "new", "Ship", "(", "0", ",", "10", ")", "str\n", "3.5", "<=", "!="}
	if len(texts) != len(want) {
		t.Fatalf("tokens: %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* unterminated", `"bad \q escape"`, "@"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("bb at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestParseShipProgram(t *testing.T) {
	src := `
	table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)
	put new Ship(0, 10, 10, 150, 0)
	foreach (Ship s) {
	  if (s.x < 400) { put new Ship(s.frame+1, s.x+150, s.y, s.dx, s.dy) }
	}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Decls) != 3 {
		t.Fatalf("decls = %d", len(f.Decls))
	}
	td := f.Decls[0].(*TableDecl)
	if td.Name != "Ship" || len(td.Cols) != 5 || !td.Cols[0].Key || td.Cols[1].Key {
		t.Errorf("table decl = %+v", td)
	}
	if len(td.OrderBy) != 2 || td.OrderBy[0].Kind != "lit" || td.OrderBy[1].Kind != "seq" {
		t.Errorf("orderby = %+v", td.OrderBy)
	}
	rd := f.Decls[2].(*RuleDecl)
	if rd.Table != "Ship" || rd.Var != "s" || len(rd.Body) != 1 {
		t.Errorf("rule = %+v", rd)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"table",                              // missing name
		"table T(int)",                       // missing column name
		"table T(float x)",                   // unknown type
		"order A",                            // single name
		"put 42",                             // put of non-new
		"foreach Ship s {}",                  // missing parens
		"foreach (Ship s) { if x {} }",       // if without parens
		"foreach (Ship s) { for (x : 3) {}}", // for over non-query
		"bogus",                              // unknown decl
		"foreach (Ship s) { put new T(1) ",   // unterminated block
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"table T(int a) table T(int a)", "declared twice"},
		{"put new Missing(1)", "unknown table"},
		{"table T(int a) put new T(1, 2)", "2 args"},
		{"table T(int a) foreach (Missing m) {}", "unknown table"},
		{"table T(int a) foreach (T t) { put new T(1,2) }", "2 args"},
		{"table T(int a) foreach (T t) { for (x : get U(1)) {} }", "unknown table"},
		{"table T(int a) orderby (seq b)", "unknown column"},
		{"order A < B order B < A", "contradicts"},
		{"order A < B order B < C order C < A", "contradicts"},
		{"table T(int a) foreach (T t) { val s = new Statistics(1) }", "no arguments"},
		{"table T(int a)\n\ntable " + strings.Repeat("L", 256) + "(int a)", "jstar:3:1: jstar: table name"},
	}
	for _, c := range cases {
		_, err := CompileSource(c.src)
		if err == nil {
			t.Errorf("CompileSource(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("CompileSource(%q) error %q, want contains %q", c.src, err, c.want)
		}
	}
}

func TestShipEndToEnd(t *testing.T) {
	src := `
	table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)
	put new Ship(0, 10, 10, 150, 0)
	foreach (Ship s) {
	  if (s.x < 400) { put new Ship(s.frame+1, s.x+150, s.y, s.dx, s.dy) }
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential, CheckCausality: true})
	ship := findTable(t, r, "Ship")
	if r.Gamma().Table(ship).Len() != 4 {
		t.Errorf("Ship tuples = %d, want 4", r.Gamma().Table(ship).Len())
	}
}

func findTable(t *testing.T, r *core.Run, name string) *tuple.Schema {
	t.Helper()
	// The run's Gamma resolves by schema pointer; fetch via the program.
	for _, s := range r.Program().Tables() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("table %s not found", name)
	return nil
}

func TestFibonacci(t *testing.T) {
	src := `
	table Fib(int n -> int value) orderby (Int, seq n)
	put new Fib(0, 0)
	put new Fib(1, 1)
	foreach (Fib f) {
	  if (f.n >= 1 && f.n < 20) {
	    val prev = get uniq? Fib(f.n - 1)
	    if (prev != null) {
	      put new Fib(f.n + 1, f.value + prev.value)
	    }
	  }
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential, CheckCausality: true})
	fib := findTable(t, r, "Fib")
	var last int64
	r.Gamma().Table(fib).Scan(func(tp *tuple.Tuple) bool {
		if tp.Int("n") == 20 {
			last = tp.Int("value")
		}
		return true
	})
	if last != 6765 {
		t.Errorf("fib(20) = %d, want 6765", last)
	}
}

func TestPvWattsStyleReduceAndLambda(t *testing.T) {
	src := `
	table Reading(int month, int power) orderby (Reading)
	table SumMonth(int month) orderby (SumMonth)
	order Reading < SumMonth
	put new Reading(1, 10)
	put new Reading(1, 20)
	put new Reading(2, 50)
	put new Reading(2, 70)
	foreach (Reading r) { put new SumMonth(r.month) }
	foreach (SumMonth s) {
	  val stats = new Statistics()
	  for (record : get Reading(s.month)) {
	    stats += record.power
	  }
	  println(s.month + ": " + stats.mean)
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	out := r.Output()
	sort.Strings(out)
	if len(out) != 2 || !strings.HasPrefix(out[0], "1: 15") || !strings.HasPrefix(out[1], "2: 60") {
		t.Errorf("output = %q", out)
	}
}

func TestDijkstraStyleProgram(t *testing.T) {
	src := `
	table Edge(int from, int to, int value) orderby (Edge)
	table Estimate(int vertex, int distance) orderby (Int, seq distance, Estimate)
	table Done(int vertex -> int distance) orderby (Int, seq distance, Done)
	order Edge < Int
	order Estimate < Done
	put new Edge(0, 1, 4)
	put new Edge(0, 2, 1)
	put new Edge(2, 1, 1)
	put new Edge(1, 3, 2)
	put new Estimate(0, 0)
	foreach (Estimate dist) {
	  if (get uniq? Done(dist.vertex, [distance < dist.distance]) == null) {
	    put new Done(dist.vertex, dist.distance)
	    for (edge : get Edge(dist.vertex)) {
	      if (get uniq? Done(edge.to) == null) {
	        put new Estimate(edge.to, dist.distance + edge.value)
	      }
	    }
	  }
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	done := findTable(t, r, "Done")
	got := map[int64]int64{}
	r.Gamma().Table(done).Scan(func(tp *tuple.Tuple) bool {
		got[tp.Int("vertex")] = tp.Int("distance")
		return true
	})
	want := map[int64]int64{0: 0, 1: 2, 2: 1, 3: 4}
	for v, d := range want {
		if got[v] != d {
			t.Errorf("dist[%d] = %d, want %d (got %v)", v, got[v], d, got)
		}
	}
}

func TestGetMinAndCount(t *testing.T) {
	src := `
	table Score(int player, int points) orderby (Score)
	table Ask(int q) orderby (Ask)
	order Score < Ask
	put new Score(1, 30)
	put new Score(1, 10)
	put new Score(2, 99)
	put new Ask(0)
	foreach (Ask a) {
	  val best = get min Score(1)
	  println("min " + best.points)
	  println("count " + get count Score(1))
	  println("all " + get count Score())
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	out := strings.Join(r.Output(), "")
	if !strings.Contains(out, "min 10") || !strings.Contains(out, "count 2") ||
		!strings.Contains(out, "all 3") {
		t.Errorf("output = %q", out)
	}
}

func TestBuiltinsAndOperators(t *testing.T) {
	src := `
	table N(int v) orderby (N)
	put new N(7)
	foreach (N n) {
	  println(min(n.v, 3))
	  println(max(n.v, 3))
	  println(abs(0 - n.v))
	  println(n.v % 4)
	  println(n.v / 2)
	  println(n.v * 1.5)
	  println(n.v > 3 && n.v < 10)
	  println(n.v < 3 || n.v == 7)
	  println(!(n.v == 7))
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	out := r.Output()
	want := []string{"3", "7", "7", "3", "3", "10.5", "true", "true", "false"}
	if len(out) != len(want) {
		t.Fatalf("output = %q", out)
	}
	for i := range want {
		if strings.TrimSpace(out[i]) != want[i] {
			t.Errorf("line %d = %q, want %q", i, out[i], want[i])
		}
	}
}

func TestRuntimeErrorsSurface(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div0", `table N(int v) orderby (N)
			put new N(1)
			foreach (N n) { println(n.v / 0) }`, "division by zero"},
		{"nullfield", `table N(int v) orderby (Int, seq v)
			put new N(5)
			foreach (N n) {
				val q = get uniq? N(99)
				println(q.v)
			}`, "null"},
		{"badif", `table N(int v) orderby (N)
			put new N(1)
			foreach (N n) { if (n.v) {} }`, "boolean"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := CompileSource(c.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, err = p.Execute(core.Options{Strategy: exec.Sequential})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want contains %q", err, c.want)
			}
		})
	}
}

func TestParallelExecutionOfCompiledProgram(t *testing.T) {
	// Triangle numbers via self-join: parallel-safe, deterministic output.
	src := `
	table T(int n -> int total) orderby (Int, seq n)
	put new T(1, 1)
	foreach (T t) {
	  if (t.n < 50) {
	    put new T(t.n + 1, t.total + t.n + 1)
	  }
	}`
	p, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Execute(core.Options{Threads: 4, CheckCausality: true})
	if err != nil {
		t.Fatal(err)
	}
	tt := findTable(t, r, "T")
	var total int64
	r.Gamma().Table(tt).Scan(func(tp *tuple.Tuple) bool {
		if tp.Int("n") == 50 {
			total = tp.Int("total")
		}
		return true
	})
	if total != 50*51/2 {
		t.Errorf("T(50) = %d, want %d", total, 50*51/2)
	}
}

func TestStringConcatAndComparison(t *testing.T) {
	src := `
	table S(String name) orderby (S)
	put new S("beta")
	foreach (S s) {
	  println("name=" + s.name)
	  println(s.name < "gamma")
	  println(s.name == "beta")
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	out := strings.Join(r.Output(), "")
	if !strings.Contains(out, "name=beta") || !strings.Contains(out, "true") {
		t.Errorf("output = %q", out)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
	table N(int v) orderby (Int, seq v)
	put new N(1)
	put new N(5)
	put new N(9)
	foreach (N n) {
	  if (n.v < 3) { println("small") }
	  else if (n.v < 7) { println("mid") }
	  else { println("big") }
	}`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	out := r.Output()
	if len(out) != 3 || !strings.Contains(out[0], "small") ||
		!strings.Contains(out[1], "mid") || !strings.Contains(out[2], "big") {
		t.Errorf("output = %q", out)
	}
}

// TestSingleLookup drives a compiled rule of the single-lookup shape
// (leading vals, one indexed-lookup loop with a lambda, trailing puts)
// through a step batch large enough to straddle worker chunks, under both
// the sequential and parallel engines and with the runtime causality
// checker on: each firing's reads are checked against its own trigger,
// and the per-tuple bodies, reusing pooled environments across a chunk,
// must still compute every group's own sum.
func TestSingleLookup(t *testing.T) {
	src := `
	table Item(int g, int v) orderby (Item)
	table Group(int g) orderby (Group)
	table Sum(int g, int total) orderby (Sum)
	order Item < Group < Sum

	foreach (Group grp) {
	  val acc = 0
	  for (it : get Item(grp.g, [v >= 10])) {
	    acc += it.v
	  }
	  put new Sum(grp.g, acc)
	}`
	var puts strings.Builder
	const groups = 60
	for g := 0; g < groups; g++ {
		// Two qualifying values (10+g, 20+g) and one filtered out (g%10).
		fmt.Fprintf(&puts, "put new Item(%d, %d)\nput new Item(%d, %d)\nput new Item(%d, %d)\nput new Group(%d)\n",
			g, 10+g, g, 20+g, g, g%10, g)
	}
	for _, opts := range []core.Options{
		{Strategy: exec.Sequential, CheckCausality: true},
		{Threads: 4, CheckCausality: true},
	} {
		p, err := CompileSource(src + puts.String())
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Execute(opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		sumT := findTable(t, r, "Sum")
		got := make(map[int64]int64)
		r.Gamma().Table(sumT).Scan(func(tp *tuple.Tuple) bool {
			got[tp.Int("g")] = tp.Int("total")
			return true
		})
		if len(got) != groups {
			t.Fatalf("opts %+v: %d Sum tuples, want %d", opts, len(got), groups)
		}
		for g := int64(0); g < groups; g++ {
			if want := 30 + 2*g; got[g] != want {
				t.Errorf("opts %+v: Sum(%d) = %d, want %d", opts, g, got[g], want)
			}
		}
	}
}

// TestLookupErrorPropagates: a runtime error in one firing's loop body
// must fail the run even when later firings in the same chunk iterate
// successfully, with the causality checker on as well as off.
func TestLookupErrorPropagates(t *testing.T) {
	src := `
	table Item(int g, int v) orderby (Item)
	table Group(int g) orderby (Group)
	table Sum(int g, int total) orderby (Sum)
	order Item < Group < Sum

	foreach (Group grp) {
	  val acc = 0
	  for (it : get Item(grp.g)) {
	    if (grp.g == 0) {
	      if (it.v) { acc += 1 }
	    }
	    acc += it.v
	  }
	  put new Sum(grp.g, acc)
	}
	put new Item(0, 1)
	put new Item(1, 2)
	put new Item(2, 3)
	put new Group(0)
	put new Group(1)
	put new Group(2)`
	for _, opts := range []core.Options{
		{Strategy: exec.Sequential},
		{Threads: 4},
		{Strategy: exec.Sequential, CheckCausality: true},
		{Threads: 4, CheckCausality: true},
	} {
		p, err := CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(opts); err == nil ||
			!strings.Contains(err.Error(), "if condition is not boolean") {
			t.Errorf("opts %+v: err = %v, want the group-0 non-boolean-if error", opts, err)
		}
	}
}

// TestRulePanicNamesItsTrigger: a compiled rule that fails on exactly one
// tuple of a 64-tuple step must fail the run with an error naming that
// rule and that tuple, whichever chunk and worker the tuple landed on.
func TestRulePanicNamesItsTrigger(t *testing.T) {
	var src strings.Builder
	src.WriteString(`
	table Event(int n) orderby (Event)
	table Out(int n, int v) orderby (Out)
	order Event < Out

	foreach (Event e) {
	  put new Out(e.n, 10 / (e.n - 5))
	}
	`)
	for n := 0; n < 64; n++ {
		fmt.Fprintf(&src, "put new Event(%d)\n", n)
	}
	for _, opts := range []core.Options{
		{Strategy: exec.Sequential},
		{Threads: 4},
	} {
		p, err := CompileSource(src.String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Execute(opts)
		if err == nil || !strings.Contains(err.Error(), "rule foreach_Event_1 on Event(5) panicked") ||
			!strings.Contains(err.Error(), "division by zero") {
			t.Errorf("opts %+v: err = %v, want foreach_Event_1 on Event(5) failing with division by zero", opts, err)
		}
	}
}
