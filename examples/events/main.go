// Command events demonstrates JStar's event-driven programming model (§3):
// external input tuples arrive while the program runs, trigger rules, and
// ordered output is produced through a Println table whose side effects
// happen when its tuples leave the Delta set — in causal order, no matter
// how parallel the execution is (§6.2 fn 8's "kosher way of printing").
//
// The program is a tiny trading monitor: Price events stream in; a rule
// maintains a running maximum per symbol and emits an ordered alert line
// whenever a new high is seen.
//
// Ingestion uses the Session lifecycle: Program.Start runs the engine as
// an online service, the feed goroutine injects Price tuples with
// Session.Put (which never waits for quiescence — events are appended to
// the session's pending list and absorbed while rules execute), and the main
// goroutine waits for the fixpoint with Quiesce.
//
//	go run ./examples/events
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/jstar-lang/jstar"
)

func main() {
	p := jstar.NewProgram()
	// Timestamp-first orderby lists: everything at time t settles before
	// anything at time t+1.
	price := p.Table("Price",
		jstar.Cols(jstar.IntCol("t"), jstar.StrCol("sym"), jstar.IntCol("cents")),
		jstar.OrderBy(jstar.Seq("t"), jstar.Lit("Price")))
	high := p.Table("High",
		jstar.Cols(jstar.IntCol("t"), jstar.StrCol("sym"), jstar.IntCol("cents")),
		jstar.OrderBy(jstar.Seq("t"), jstar.Lit("High")))
	alert := p.PrintlnTable("Alert",
		jstar.OrderBy(jstar.Seq("line"), jstar.Lit("Alert")))
	p.Order("Price", "High", "Alert")

	p.Rule("watchHighs", price, func(c *jstar.Ctx, e *jstar.Tuple) {
		t, sym, cents := e.Int("t"), e.Str("sym"), e.Int("cents")
		// Previous high for this symbol: a query into the strict past.
		best := int64(-1)
		c.ForEach(high, jstar.Where(func(h *jstar.Tuple) bool {
			return h.Str("sym") == sym && h.Int("t") < t
		}), func(h *jstar.Tuple) bool {
			if h.Int("cents") > best {
				best = h.Int("cents")
			}
			return true
		})
		if cents > best {
			c.PutNew(high, jstar.Int(t), jstar.Str(sym), jstar.Int(cents))
			c.PutNew(alert, jstar.Str(fmt.Sprintf("t=%02d new high %s %d.%02d",
				t, sym, cents/100, cents%100)))
		}
	})

	ctx := context.Background()
	sess, err := p.Start(ctx, jstar.Options{Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	feed := []struct {
		t     int64
		sym   string
		cents int64
	}{
		{1, "ACME", 1000}, {2, "GLOB", 500}, {3, "ACME", 990},
		{4, "ACME", 1020}, {5, "GLOB", 480}, {6, "GLOB", 510},
		{7, "ACME", 1019}, {8, "ACME", 1100},
	}
	done := make(chan error, 1)
	go func() {
		for _, e := range feed {
			if err := sess.Put(jstar.New(price,
				jstar.Int(e.t), jstar.Str(e.sym), jstar.Int(e.cents))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	if err := sess.Quiesce(ctx); err != nil {
		log.Fatal(err)
	}
	run := sess.Run()
	for _, line := range run.Output() {
		fmt.Print(line)
	}
	fmt.Printf("events=%d alerts=%d steps=%d\n",
		run.Stats().Tables["Price"].Triggers.Load(),
		run.Gamma().Table(high).Len(), run.Stats().Steps)
}
