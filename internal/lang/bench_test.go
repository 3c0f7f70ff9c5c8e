package lang

import (
	"context"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// BenchmarkCompiledVsGo prices the compiled rule body against the body a
// Go-API user would write by hand, on the service's tenant program
// (fanoutTenant: each Event(n) puts Out(n, n*2)). Both programs have the
// same tables, order, initial put and store hints; each run streams
// 100,000 events through Session.PutBatch, in the service's 256-row
// frames, at one thread, and quiesces. ns/event is the metric; the
// compiled ÷ go ratio is what the typed closures are judged by.
//
//	go test -run '^$' -bench '^BenchmarkCompiledVsGo$' -count 5 ./internal/lang
func BenchmarkCompiledVsGo(b *testing.B) {
	compiled, err := CompileSource(fanoutTenant)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *core.Program
	}{{"compiled", compiled}, {"go", handWrittenFanout(compiled)}} {
		b.Run(c.name, func(b *testing.B) { benchFanout(b, c.prog) })
	}
}

// handWrittenFanout is fanoutTenant through the Go API, with compiled's
// store hints.
func handWrittenFanout(compiled *core.Program) *core.Program {
	p := core.NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}}, []tuple.OrderEntry{tuple.Lit("Event")})
	out := p.Table("Out", []tuple.Column{{Name: "n", Kind: tuple.KindInt}, {Name: "v", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Out")})
	p.Order("Event", "Out")
	p.Rule("foreach_Event_1", ev, func(ctx *core.Ctx, t *tuple.Tuple) {
		n := t.Field(0).AsInt()
		ctx.PutNew(out, tuple.Int(n), tuple.Int(n*2))
	})
	p.Put(tuple.New(ev, tuple.Int(1)))
	for table, spec := range compiled.PlanHints() {
		p.PlanHint(table, spec)
	}
	return p
}

func benchFanout(b *testing.B, p *core.Program) {
	const events, frame = 100_000, 256
	ev, out := p.Schema("Event"), p.Schema("Out")
	batch := make([]*tuple.Tuple, events)
	for i := range batch {
		batch[i] = tuple.New(ev, tuple.Int(int64(i)))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := p.Start(ctx, core.Options{Threads: 1, Quiet: true})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < events; lo += frame {
			if err := sess.PutBatch(batch[lo:min(lo+frame, events)]...); err != nil {
				b.Fatal(err)
			}
		}
		if err := sess.Quiesce(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rows, err := sess.Snapshot(out)
		if err != nil || len(rows) != events {
			b.Fatalf("%d Out rows (err %v), want %d", len(rows), err, events)
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
