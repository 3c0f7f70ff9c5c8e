package stats

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/tuple"
)

func TestPhaseTimer(t *testing.T) {
	p := NewPhaseTimer()
	p.Add("read", 169*time.Millisecond)
	p.Add("insert", 637*time.Millisecond)
	p.Add("delta", 38*time.Millisecond)
	p.Add("reduce", 156*time.Millisecond)
	if p.Total() != 1000*time.Millisecond {
		t.Errorf("total = %v", p.Total())
	}
	if math.Abs(p.Share("read")-0.169) > 1e-9 {
		t.Errorf("read share = %v", p.Share("read"))
	}
	rep := p.Report()
	if !strings.Contains(rep, "63.7%") || !strings.Contains(rep, "insert") {
		t.Errorf("report:\n%s", rep)
	}
	// Accumulation on an existing phase.
	p.Add("read", 31*time.Millisecond)
	if p.Share("read") <= 0.169 {
		t.Error("Add must accumulate")
	}
}

func TestPhaseTimerTimeAndEmpty(t *testing.T) {
	p := NewPhaseTimer()
	if p.Share("nothing") != 0 {
		t.Error("empty share")
	}
	p.Time("work", func() { time.Sleep(2 * time.Millisecond) })
	if p.Total() < 2*time.Millisecond {
		t.Errorf("timed phase = %v", p.Total())
	}
}

func TestAmdahlMax(t *testing.T) {
	// The paper's §6.3 bound: 16.9% serial, 12 consumers -> 4.2x.
	got := AmdahlMax(0.169, 12)
	if math.Abs(got-4.2) > 0.05 {
		t.Errorf("AmdahlMax(0.169, 12) = %v, want ~4.2", got)
	}
	if AmdahlMax(1, 100) != 1 {
		t.Error("fully serial program cannot speed up")
	}
	if AmdahlMax(0, 8) != 8 {
		t.Error("fully parallel program scales linearly")
	}
}

func traceRun(t *testing.T) (*core.Program, *core.Run) {
	t.Helper()
	p := core.NewProgram()
	a := p.Table("A", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("A")})
	b := p.Table("B", []tuple.Column{{Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("B")})
	p.Order("A", "B")
	p.Rule("ab", a, func(c *core.Ctx, tp *tuple.Tuple) {
		c.PutNew(b, tp.Get("v"))
	})
	p.Put(tuple.New(a, tuple.Int(1)))
	p.Put(tuple.New(a, tuple.Int(2)))
	run, err := p.Execute(core.Options{Strategy: exec.Sequential, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, run
}

func TestProgramDOT(t *testing.T) {
	p, run := traceRun(t)
	dot := ProgramDOT(p, run)
	for _, want := range []string{
		"digraph jstar",
		`"A" [shape=box`,
		`"ab" [shape=ellipse`,
		`"A" -> "ab"`,
		`"ab" -> "B" [label="x2"]`,
		`"start" -> "A" [label="init x2"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Without a run: static graph only.
	static := ProgramDOT(p, nil)
	if strings.Contains(static, "init") {
		t.Error("static graph must not contain observed flow")
	}
}

// TestProgramDOTDeterministic: each example program, run and rendered
// with its observed dataflow several times over, gives byte-identical DOT
// — the put edges come out sorted, whatever order the flow map ranges in.
func TestProgramDOTDeterministic(t *testing.T) {
	files, err := filepath.Glob("../../examples/programs/*.jstar")
	if err != nil || len(files) != 4 {
		t.Fatalf("example programs: %v, %v", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for range 2 {
			p, err := lang.CompileSource(string(src))
			if err != nil {
				t.Fatal(err)
			}
			run, err := p.Execute(core.Options{Strategy: exec.Sequential, Quiet: true, MaxSteps: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				dot := ProgramDOT(p, run)
				if first == "" {
					first = dot
					if !strings.Contains(dot, "label=\"init x") {
						t.Errorf("%s: no observed put edges:\n%s", f, dot)
					}
				} else if dot != first {
					t.Fatalf("%s: DOT differs between renderings:\n%s\nvs\n%s", f, first, dot)
				}
			}
		}
	}
}

func TestTableReport(t *testing.T) {
	_, run := traceRun(t)
	rep := TableReport(run)
	if !strings.Contains(rep, "table") || !strings.Contains(rep, "A") ||
		!strings.Contains(rep, "steps=") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestTableReportHeader(t *testing.T) {
	_, run := traceRun(t)
	rep := TableReport(run)
	if !strings.Contains(rep, "strategy=") || !strings.Contains(rep, "gomaxprocs=") {
		t.Errorf("report missing run header:\n%s", rep)
	}
}
