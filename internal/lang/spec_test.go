package lang

import (
	"strings"
	"testing"

	"github.com/jstar-lang/jstar/internal/causality"
	"github.com/jstar-lang/jstar/internal/order"
)

// compileSpecs parses and compiles src, returning its rules' contracts.
func compileSpecs(src string) ([]causality.RuleSpec, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	_, specs, err := CompileSpecs(f)
	return specs, err
}

func checkSource(t *testing.T, src string, orders ...[]string) []causality.Obligation {
	t.Helper()
	specs, err := compileSpecs(src)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	po := order.NewPartialOrder()
	for _, o := range orders {
		if err := po.Declare(o...); err != nil {
			t.Fatal(err)
		}
	}
	return causality.NewChecker(po).Check(specs)
}

const shipSrc = `
table Ship(int frame -> int x, int y, int dx, int dy) orderby (Int, seq frame)
put new Ship(0, 10, 10, 150, 0)
foreach (Ship s) {
  if (s.x < 400) { put new Ship(s.frame+1, s.x+150, s.y, s.dx, s.dy) }
}`

func TestExtractShipProved(t *testing.T) {
	obs := checkSource(t, shipSrc)
	if len(obs) != 1 {
		t.Fatalf("obligations: %+v", obs)
	}
	if !obs[0].Proved {
		t.Errorf("ship put should be proved: %s", obs[0].Reason)
	}
}

func TestExtractTimeTravelRejected(t *testing.T) {
	src := `
	table Ship(int frame -> int x) orderby (Int, seq frame)
	foreach (Ship s) { put new Ship(s.frame - 1, s.x) }`
	obs := checkSource(t, src)
	if len(obs) != 1 || obs[0].Proved {
		t.Fatalf("frame-1 put must be rejected: %+v", obs)
	}
}

func TestExtractGuardedPut(t *testing.T) {
	// frame + dx is causal only under the guard dx >= 0.
	src := `
	table Ship(int frame -> int x, int dx) orderby (Int, seq frame)
	foreach (Ship s) {
	  if (s.dx >= 0) { put new Ship(s.frame + s.dx, s.x, s.dx) }
	}`
	obs := checkSource(t, src)
	if len(obs) != 1 || !obs[0].Proved {
		t.Fatalf("guarded put must be proved: %+v", obs)
	}
	// Without the guard it must fail.
	src2 := `
	table Ship(int frame -> int x, int dx) orderby (Int, seq frame)
	foreach (Ship s) { put new Ship(s.frame + s.dx, s.x, s.dx) }`
	obs = checkSource(t, src2)
	if obs[0].Proved {
		t.Fatal("unguarded frame+dx must fail")
	}
}

func TestExtractPvWattsStratification(t *testing.T) {
	src := `
	table PvWatts(int year, int month, int power) orderby (PvWatts)
	table SumMonth(int year, int month) orderby (SumMonth)
	foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month) }`
	// With the order declaration: proved.
	obs := checkSource(t, src, []string{"Req", "PvWatts", "SumMonth"})
	if !obs[0].Proved {
		t.Fatalf("ordered PvWatts->SumMonth put must be proved: %+v", obs[0])
	}
	// Without it: the paper's "Stratification error".
	obs = checkSource(t, src)
	if obs[0].Proved || !strings.Contains(obs[0].Reason, "incomparable") {
		t.Fatalf("missing order declaration must fail: %+v", obs[0])
	}
}

const dijkstraSrc = `
table Edge(int from, int to, int value) orderby (Edge)
table Estimate(int vertex, int distance) orderby (Int, seq distance, Estimate)
table Done(int vertex -> int distance) orderby (Int, seq distance, Done)
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

func TestExtractDijkstra(t *testing.T) {
	obs := checkSource(t, dijkstraSrc,
		[]string{"Vertex", "Edge", "Int"}, []string{"Estimate", "Done"})
	byKind := map[string][]causality.Obligation{}
	for _, o := range obs {
		byKind[o.Kind+"/"+o.Target] = append(byKind[o.Kind+"/"+o.Target], o)
	}
	// put Done(dist.vertex, dist.distance): same distance, Estimate < Done.
	for _, o := range byKind["put/Done"] {
		if !o.Proved {
			t.Errorf("put Done should be proved: %s", o.Reason)
		}
	}
	// The first Done query is bounded by [distance < dist.distance]: proved.
	foundProvedDoneQuery := false
	for _, o := range byKind["query/Done"] {
		if o.Proved {
			foundProvedDoneQuery = true
		}
	}
	if !foundProvedDoneQuery {
		t.Error("lambda-bounded Done query should be proved")
	}
	// The second Done query (unbounded, on edge.to) is NOT provable —
	// matching the real situation: it is an optimisation the engine makes
	// safe via Delta-visibility, not via the static causality law.
	allProved := true
	for _, o := range byKind["query/Done"] {
		if !o.Proved {
			allProved = false
		}
	}
	if allProved {
		t.Error("unbounded Done(edge.to) query should not be provable")
	}
	// put Estimate(distance + edge.value): a non-strict obligation that
	// needs edge.value >= 0, which the contract cannot know without an
	// invariant — expect a warning.
	for _, o := range byKind["put/Estimate"] {
		if o.Proved {
			t.Error("Estimate put without the edge.value>=0 invariant should warn")
		}
	}
}

func TestExtractNonAffinePutFallsBack(t *testing.T) {
	src := `
	table T(int t -> int v) orderby (Int, seq t)
	foreach (T x) { put new T(x.t * x.v, 0) }`
	obs := checkSource(t, src)
	if obs[0].Proved {
		t.Fatal("non-affine put key must not be provable")
	}
}

func TestExtractConstTimesFieldIsAffine(t *testing.T) {
	src := `
	table T(int t -> int v) orderby (Int, seq t)
	foreach (T x) { put new T(2 * x.t + 1, 0) }`
	// 2t+1 >= t is not valid for negative t; without invariants it warns.
	obs := checkSource(t, src)
	if obs[0].Proved {
		t.Fatal("2t+1 >= t needs t >= -1; must warn without invariants")
	}
	// But with a guard t >= 0 it is proved.
	src2 := `
	table T(int t -> int v) orderby (Int, seq t)
	foreach (T x) {
	  if (x.t >= 0) { put new T(2 * x.t + 1, 0) }
	}`
	obs = checkSource(t, src2)
	if !obs[0].Proved {
		t.Fatalf("guarded 2t+1 put should be proved: %s", obs[0].Reason)
	}
}

func TestExtractAggregateQueries(t *testing.T) {
	src := `
	table A(int t) orderby (Int, seq t)
	table B(int t) orderby (Int, seq t)
	foreach (A a) {
	  val n = get count B(a.t - 1)
	  println(n)
	}`
	obs := checkSource(t, src)
	if len(obs) != 1 || !obs[0].Proved {
		t.Fatalf("count of strict past must be proved: %+v", obs)
	}
	// Count at the same timestamp is not a strict-past read.
	src2 := `
	table A(int t) orderby (Int, seq t)
	table B(int t) orderby (Int, seq t)
	foreach (A a) {
	  val n = get count B(a.t)
	  println(n)
	}`
	obs = checkSource(t, src2)
	if obs[0].Proved {
		t.Fatal("same-timestamp aggregate must warn")
	}
}

func TestReportOnExtractedSpecs(t *testing.T) {
	specs, err := compileSpecs(shipSrc)
	if err != nil {
		t.Fatal(err)
	}
	po := order.NewPartialOrder()
	rep := causality.Report(causality.NewChecker(po).Check(specs))
	if !strings.Contains(rep, "1/1 obligations proved") {
		t.Errorf("report:\n%s", rep)
	}
}

// shadowSrc's loop variable x shadows the trigger x: the put's key is the
// inner U row's t, which may be below the trigger's, so the put obligation
// must not be proved (at run time, put new U(1) then put new T(5) fires
// the rule on T(5), which puts T(1) into the past).
const shadowSrc = `
table T(int t) orderby (Int, seq t)
table U(int t) orderby (U)
order U < Int
put new T(5)
put new U(1)
foreach (T x) { for (x : get U()) { put new T(x.t) } }`

func TestExtractShadowedBinding(t *testing.T) {
	obs := checkSource(t, shadowSrc, []string{"U", "Int"})
	var put *causality.Obligation
	for i, o := range obs {
		if o.Kind == "put" {
			put = &obs[i]
		}
	}
	if put == nil || put.Proved {
		t.Fatalf("put of the shadowing x's t must not be proved: %+v", obs)
	}
}

// TestExtractNestedGetInPrefix: a same-timestamp count nested in another
// get's prefix, of a get uniq? or of a for query, is its own aggregate
// query and must warn.
func TestExtractNestedGetInPrefix(t *testing.T) {
	for _, stmt := range []string{
		`val b = get uniq? B(a.t - 1, get count C(a.t)) println(b)`,
		`for (b : get B(a.t - 1, get count C(a.t))) { println(b) }`,
	} {
		src := `
	table A(int t) orderby (Int, seq t)
	table B(int t, int n) orderby (Int, seq t)
	table C(int t) orderby (Int, seq t)
	foreach (A a) { ` + stmt + ` }`
		var cs []causality.Obligation
		for _, o := range checkSource(t, src) {
			if o.Kind == "query" && o.Target == "C" {
				cs = append(cs, o)
			}
		}
		if len(cs) != 1 || cs[0].Proved {
			t.Errorf("%s: want one unproved query C, got %+v", stmt, cs)
		}
	}
}

// TestExtractPutOfTupleValue: `put t` of a tuple built earlier is a put
// whose key is unknown, so it must warn.
func TestExtractPutOfTupleValue(t *testing.T) {
	src := `
	table T(int t) orderby (Int, seq t)
	foreach (T x) { val y = new T(x.t - 1) put y }`
	obs := checkSource(t, src)
	if len(obs) != 1 || obs[0].Kind != "put" || obs[0].Proved {
		t.Fatalf("put of a tuple value must be an unproved put: %+v", obs)
	}
}

// TestExtractAccumulatedBinding: a guard on an accumulator's value before
// a += says nothing of its value after, whether the += comes first in
// straight-line code or in an earlier iteration of a loop. A put of the
// value before the +=, and a guard on the trigger inside a loop, are still
// proved.
func TestExtractAccumulatedBinding(t *testing.T) {
	for stmt, proved := range map[string]bool{
		`if (n >= x.t) { n += -1 put new T(n) }`:                       false,
		`if (n >= x.t) { for (u : get U()) { put new T(n) n += -1 } }`: false,
		`if (n >= x.t) { put new T(n) n += -1 }`:                       true,
		`if (x.t >= 0) { for (u : get U()) { put new T(2 * x.t) } }`:   true,
	} {
		src := `
	table T(int t) orderby (Int, seq t)
	table U(int u) orderby (U)
	foreach (T x) { val n = x.t ` + stmt + ` }`
		obs := checkSource(t, src, []string{"U", "Int"})
		if o := obs[0]; o.Kind != "put" || o.Proved != proved {
			t.Errorf("%s: %+v, want a put proved %v", stmt, o, proved)
		}
	}
}
