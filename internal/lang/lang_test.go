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
		{"mod0", `table N(int v) orderby (N)
			put new N(1)
			foreach (N n) { println(n.v % (n.v - 1)) }`, "jstar:3:1: integer modulo by zero"},
		{"nullput", `table N(int v) orderby (Int, seq v)
			put new N(5)
			foreach (N n) {
				val q = get uniq? N(99)
				put q
			}`, "jstar:5:1: put of null"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := CompileSource(c.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, err = p.Execute(core.Options{Strategy: exec.Sequential})
			if err == nil || !strings.Contains(err.Error(), c.want) || !runtimeFailure.MatchString(err.Error()) {
				t.Errorf("error = %v, want contains %q and one of the run-time failures FuzzCompileSource allows", err, c.want)
			}
		})
	}
}

// TestExpressionSemantics runs one rule through every expression form —
// int and double arithmetic with widening, string concatenation of every
// kind, comparisons, builtins, Statistics, accumulators, null and tuple
// equality, get modes, shadowing — and checks its output line by line.
// The expected lines are the output of the interpreter this compiler
// replaced, so a typed closure that computes differently shows here.
func TestExpressionSemantics(t *testing.T) {
	src := `
	table N(int v, double d, String s, boolean b) orderby (Int, seq v)
	table P(int k, double w) orderby (P)
	order P < Int
	put new N(7, 2.5, "beta", true)
	put new P(1, 3)
	put new P(1, 4.5)
	put new P(2, 10)
	foreach (N n) {
	  val t = n.v * 2 + 1
	  val x = n.d * n.v - 1
	  println("a " + t + " " + x + " " + (n.v / 2) + " " + (n.v % 3) + " " + (n.d / 2) + " " + (n.d % 1))
	  println("b " + (n.v < n.d) + " " + (n.v == 7.0) + " " + (n.s < "gamma") + " " + (n.s >= "beta") + " " + (n.b != false))
	  println(1 + 2 + "c" + 1 + 2)
	  println("d " + min(n.v, 2.5) + " " + max(n.d, 3) + " " + abs(-n.d) + " " + abs(3 - n.v) + " " + -n.v + " " + !n.b)
	  val st = new Statistics()
	  val sum = 0.0
	  val cnt = 0
	  for (p : get P(1)) {
	    st += p.w
	    sum += p.k
	    cnt += 1
	  }
	  println("e " + st + " " + st.count + " " + st.sum + " " + st.min + " " + st.max + " " + st.mean + " " + sum + " " + cnt)
	  val none = get uniq? P(9)
	  val one = get uniq? P(2, [w > 5])
	  println("f " + none + " " + one + " " + (none == null) + " " + (one != null) + " " + (one == one) + " " + (null == null))
	  println(one)
	  println(st)
	  println(new P(5, 6))
	  println("g " + (get count P()) + " " + (get count P(1, [w < 4])) + " " + get min P(1))
	  println("h " + (new P(1, 3) == get min P(1)) + " " + (n.b && n.v > 3 || false))
	  val nul = null
	  println(nul)
	  println("i " + (nul == none) + " " + (1.0 / 0) + " " + (0 - 1.0 / 0) + " " + (5 - 7.5))
	  if (n.b) { val t = "shadow" println(t) } else { println("no") }
	  println(t)
	}
`
	r := run(t, src, core.Options{Strategy: exec.Sequential})
	want := []string{
		"a 15 16.5 3 1 1.25 0.5",
		"b false true true true true",
		"3c12",
		"d 2.5 3 2.5 4 -7 false",
		"e Statistics(n=2, mean=3.75) 2 7.5 3 4.5 3.75 2 2",
		"f null P(2, 10) true true true true",
		"P(2, 10)",
		"Statistics(n=2, mean=3.75)",
		"P(5, 6)",
		"g 3 1 P(1, 3)",
		"h true true",
		"null",
		"i true +Inf -Inf -2.5",
		"shadow",
		"15",
	}
	got := r.Output()
	if len(got) != len(want) {
		t.Fatalf("output = %q, want %q", got, want)
	}
	for i := range want {
		if strings.TrimSuffix(got[i], "\n") != want[i] {
			t.Errorf("line %d = %q, want %q", i+1, got[i], want[i])
		}
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
// and the per-tuple bodies, each on its own frame while the chunk's
// firings run at once, must still compute every group's own sum.
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

// TestLookupErrorPropagates: a run-time error in one firing's loop body
// (an integer division by zero, in group 0 only) must fail the run even
// when later firings in the same chunk iterate successfully, with the
// causality checker on as well as off.
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
	      acc += 10 / (it.v - it.v)
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
			!strings.Contains(err.Error(), "on Group(0) panicked: jstar:11:1: integer division by zero") {
			t.Errorf("opts %+v: err = %v, want group 0's division by zero", opts, err)
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

// TestTypeErrorsLocated: the typing pass names the line of every kind of
// error it finds, in rule bodies and in top-level puts.
func TestTypeErrorsLocated(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{`println(get Item(e.n))`, "iterable get Item used outside a for loop"},
		{`println(get uniq? Item(e.n, [get count Out() > 0]))`, "nested get inside a query lambda"},
		{`println(get uniq? Item("x"))`, "get Item arg 1: cannot use String as int"},
		{`println(new Statistics().median)`, "Statistics has no property median"},
		{`println(null.v)`, "field access .v on null"},
		{`println(e.n.v)`, "field access .v on int"},
		{`println(-"x")`, "unary - on String"},
		{`println(!e.n)`, "unary ! on int"},
		{`println(e.n && true)`, "&& on int and boolean"},
		{`println(e.n == "1")`, "cannot compare int and String"},
		{`println(e == 1)`, "cannot compare Event and int"},
		{`println(true < false)`, "operator < on boolean and boolean"},
		{`println(min(e.n))`, "min takes 2 arguments"},
		{`println(max(e.n, "1"))`, "max on int and String"},
		{`println(abs(true))`, "abs on boolean"},
		{`put new Out(e.n, 1.5)`, "new Out field v: cannot use double as int"},
		{`put null`, "put requires a tuple (got null)"},
		{`e += 1`, "e is not an accumulator (got Event)"},
		{`val d = 0.0 d += "x"`, "double += non-numeric String"},
		{`val s = new Statistics() s += true`, "Statistics += non-numeric boolean"},
		{`for (i : get Item(e.n)) { val w = i.v } println(w)`, "unknown variable w"},
	} {
		_, err := CompileSource(illTypedSource(c.body))
		if want := "jstar:8:1: " + c.want; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", c.body, err, want)
		}
	}
	for _, c := range []struct{ src, want string }{
		{"table T(int a)\nput new T(1 / 0)", "jstar:2:1: top-level put: jstar:2:1: integer division by zero"},
		{"table T(int a)\nput new T(\"x\")", "jstar:2:1: top-level put field a: cannot use String as int"},
		{"table T(int a)\nput new T(get count T())", "jstar:2:1: top-level put: jstar:2:1: get queries are not allowed"},
		{"table T(int a)\nput new T(x)", "jstar:2:1: top-level put: jstar:2:1: unknown variable x"},
	} {
		if _, err := CompileSource(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want %q", c.src, err, c.want)
		}
	}
}

// illTypedPrelude declares the tables every illTyped program's rule body
// uses. Each body is one line, the prelude's eighth; an Item(1, 2) and an
// Event(1) exist, so the body runs at the first firing.
const illTypedPrelude = `table Item(int g, int v) orderby (Item)
table Event(int n) orderby (Event)
table Out(int n, int v) orderby (Out)
order Item < Event < Out
put new Item(1, 2)
put new Event(1)
foreach (Event e) {
`

// illTyped is a corpus of rule bodies with a kind mismatch or an unknown
// name, each of which an untyped evaluator would accept and then fail at
// its first firing; want is the compile error.
var illTyped = []struct{ name, body, want string }{
	{"unknown-variable", `put new Out(e.n, zz * 2)`, "unknown variable zz"},
	{"string-times-int", `put new Out(e.n, "x" * 2)`, "operator * on String and int"},
	{"if-on-int", `if (e.n) { put new Out(e.n, 1) }`, "if condition is not boolean (got int)"},
	{"string-into-int-accumulator", `val acc = 0 acc += "s"`, "int accumulator += non-int String"},
	{"missing-column", `put new Out(e.m, 1)`, "table Event has no column m"},
	{"non-boolean-lambda", `println(get uniq? Item(e.n, [v + 1]))`, "query lambda is not boolean (got int)"},
	{"put-of-non-tuple", `put e.n`, "put requires a tuple (got int)"},
}

func illTypedSource(body string) string { return illTypedPrelude + body + "\n}\n" }

// TestIllTypedProgramsRefusedAtCompile: every program of the ill-typed
// corpus fails CompileSource with its line.
func TestIllTypedProgramsRefusedAtCompile(t *testing.T) {
	for _, c := range illTyped {
		t.Run(c.name, func(t *testing.T) {
			_, err := CompileSource(illTypedSource(c.body))
			if want := "jstar:8:1: " + c.want; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want %q", err, want)
			}
		})
	}
}
