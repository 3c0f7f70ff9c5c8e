package serve

import (
	"context"
	"github.com/jstar-lang/jstar/internal/exec"
	"testing"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// TestAdmitPutRingBackpressure pins the admission-control contract: a put
// is shed as soon as the session's unabsorbed ingress backlog crosses the
// tenant's pending fraction, admits again once the backlog drains, and the
// inflight semaphore survives as the fallback cap (admitFrac < 0).
func TestAdmitPutRingBackpressure(t *testing.T) {
	p := core.NewProgram()
	ev := p.Table("Event", []tuple.Column{{Name: "n", Kind: tuple.KindInt}},
		[]tuple.OrderEntry{tuple.Lit("Event"), tuple.Seq("n")})
	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	p.Rule("block", ev, func(c *core.Ctx, tp *tuple.Tuple) {
		if tp.Int("n") == 0 {
			entered <- struct{}{}
			<-block
		}
	})
	sess, err := p.Start(context.Background(), core.Options{Strategy: exec.Sequential, Quiet: true, IngressRing: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ten := &Tenant{Name: "t", Session: sess, inflight: make(chan struct{}, 4), admitFrac: 0.1}
	if err := ten.admitPut(); err != nil {
		t.Fatalf("empty backlog must admit: %v", err)
	}
	ten.releasePut()
	// Park the coordinator inside a rule firing, then pile events into the
	// pending list behind it: they stay accepted-but-unabsorbed.
	if err := sess.Put(tuple.New(ev, tuple.Int(0))); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := int64(1); i <= 4; i++ {
		if err := sess.Put(tuple.New(ev, tuple.Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if pending, capacity := sess.IngressBacklog(); pending < 4 || capacity != 16 {
		t.Fatalf("backlog = (%d, %d), want (>=4, 16)", pending, capacity)
	}
	if err := ten.admitPut(); err == nil {
		ten.releasePut()
		t.Fatal("admitPut admitted a put over a backlogged ingress")
	}
	close(block)
	if err := sess.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ten.admitPut(); err != nil {
		t.Fatalf("drained backlog must admit again: %v", err)
	}
	ten.releasePut()
	// admitFrac < 0 disables the backlog check; the semaphore still caps.
	ten2 := &Tenant{Name: "t2", Session: sess, inflight: make(chan struct{}, 1), admitFrac: -1}
	if err := ten2.admitPut(); err != nil {
		t.Fatal(err)
	}
	if err := ten2.admitPut(); err == nil {
		t.Fatal("semaphore fallback must cap inflight puts")
	}
	ten2.releasePut()
}
