package jstar_test

import (
	"context"
	"fmt"
	"log"

	"github.com/jstar-lang/jstar"
)

// ExampleSession shows the long-lived lifecycle: Start a program as an
// online service, inject external tuples with Put/PutBatch (which never
// wait for quiescence), Quiesce, and read the fixpoint back with Query
// and Snapshot.
func ExampleSession() {
	p := jstar.NewProgram()
	reading := p.Table("Reading",
		jstar.Cols(jstar.IntCol("sensor"), jstar.IntCol("celsius")),
		jstar.OrderBy(jstar.Lit("Reading")))
	over := p.Table("Overheat",
		jstar.Cols(jstar.IntCol("sensor"), jstar.IntCol("celsius")),
		jstar.OrderBy(jstar.Lit("Overheat")))
	p.Order("Reading", "Overheat")
	p.Rule("watch", reading, func(c *jstar.Ctx, r *jstar.Tuple) {
		if r.Int("celsius") > 90 {
			c.PutNew(over, r.Get("sensor"), r.Get("celsius"))
		}
	})

	sess, err := p.Start(context.Background(), jstar.Options{Strategy: jstar.StrategySequential})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	if err := sess.PutBatch(
		jstar.New(reading, jstar.Int(1), jstar.Int(40)),
		jstar.New(reading, jstar.Int(2), jstar.Int(95)),
		jstar.New(reading, jstar.Int(3), jstar.Int(101)),
	); err != nil {
		log.Fatal(err)
	}
	if err := sess.Quiesce(context.Background()); err != nil {
		log.Fatal(err)
	}

	for _, t := range sess.Snapshot(over) {
		fmt.Printf("sensor %d overheating at %d\n", t.Int("sensor"), t.Int("celsius"))
	}

	// The session stays open: later events incrementally extend the state.
	if err := sess.Put(jstar.New(reading, jstar.Int(1), jstar.Int(99))); err != nil {
		log.Fatal(err)
	}
	if err := sess.Quiesce(context.Background()); err != nil {
		log.Fatal(err)
	}
	sess.Query(over, jstar.Eq(jstar.Int(1)), func(t *jstar.Tuple) bool {
		fmt.Printf("sensor 1 alert: %d\n", t.Int("celsius"))
		return true
	})
	// Output:
	// sensor 2 overheating at 95
	// sensor 3 overheating at 101
	// sensor 1 alert: 99
}
