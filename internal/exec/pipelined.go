package exec

import (
	"sync"

	"github.com/jstar-lang/jstar/internal/disruptor"
	"github.com/jstar-lang/jstar/internal/tuple"
)

// pipeEvent is one ring slot: a ring segment (contiguous chunk) of the
// step's live batch to fire, a seal marker telling its consumer to sort
// and hand off the consumer's own put run, or the stop sentinel. Slots are
// recycled in place across ring revolutions (the Disruptor's no-garbage
// property).
type pipeEvent struct {
	ts   []*tuple.Tuple
	host Host
	// task/route carry table-affine fire tasks (AffineHost): task is the
	// index passed to FireTask, route the owner shard steering the event to
	// one consumer. Both are -1 for ordinary chunk, seal and stop events,
	// which are claimed by sequence residue as before.
	task  int
	route int64
	seal  bool
	stop  bool
}

// pipelined streams each step's live tuples through a single-producer
// Disruptor ring to a persistent consumer crew — the §6.3 PvWatts redesign
// lifted into a general executor. The producer partitions the live batch
// into grain-sized ring segments and publishes one event per segment;
// consumer i fires the segments whose sequence is congruent to i modulo
// the crew size (sharded consumption) with a single FireBatch call each,
// and appends puts to its own slot buffer (slot i+1; the coordinator is
// slot 0). The coordinator publishes a step's segments, waits for the crew
// to pass the cursor, then flushes — so steps stay causally ordered while
// the per-segment hand-off costs one atomic publish amortised over the
// whole segment.
type pipelined struct {
	consumers  int
	ringSize   int
	claimBatch int
	wait       disruptor.WaitStrategy

	ring *disruptor.Ring[pipeEvent]
	prod *disruptor.Producer[pipeEvent]
	wg   sync.WaitGroup

	started bool
	closed  bool
}

func newPipelined(cfg Config) *pipelined {
	e := &pipelined{
		consumers:  cfg.threads(),
		ringSize:   cfg.RingSize,
		claimBatch: cfg.ClaimBatch,
		wait:       cfg.Wait,
	}
	if e.consumers < 1 {
		e.consumers = 1
	}
	if e.ringSize <= 0 {
		e.ringSize = 4096
	}
	if e.claimBatch <= 0 {
		e.claimBatch = 256
	}
	if e.wait == nil {
		e.wait = &disruptor.BlockingWait{}
	}
	return e
}

func (e *pipelined) Name() string { return "pipelined" }

// start launches the consumer crew; idempotent, called on first Drain so an
// executor that is built but never run costs nothing.
func (e *pipelined) start() {
	if e.started {
		return
	}
	e.started = true
	e.ring = disruptor.NewRing[pipeEvent](e.ringSize, e.wait)
	for i := 0; i < e.consumers; i++ {
		c := e.ring.NewConsumer()
		idx, slot := int64(i), i+1
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			c.Run(func(seq int64, ev *pipeEvent) bool {
				if ev.stop {
					return false
				}
				// Ordinary events shard by sequence residue; table-affine
				// task events shard by owner route, so every task of one
				// shard lands on the same consumer — deterministic pinning,
				// the tuple's table stays hot in that worker's cache.
				mine := seq%int64(e.consumers) == idx
				if ev.route >= 0 {
					mine = ev.route%int64(e.consumers) == idx
				}
				if mine {
					switch {
					case ev.seal:
						// A consumer processes its sequences in order, so
						// by its seal event all its fire segments for the
						// step are done and its slot is stable.
						ev.host.SealSlot(slot)
					case ev.task >= 0:
						ev.host.(AffineHost).FireTask(ev.task, slot)
					default:
						ev.host.FireBatch(ev.ts, slot)
					}
				}
				return true
			})
		}()
	}
	e.prod = e.ring.NewProducer(e.claimBatch)
}

func (e *pipelined) Drain(h Host) error {
	e.start()
	return drain(h, e.fireStep)
}

// publish hands one event to the crew; task/route are -1 for everything
// but a table-affine fire task.
func (e *pipelined) publish(h Host, ts []*tuple.Tuple, task int, route int64, seal, stop bool) {
	e.prod.Publish(func(ev *pipeEvent) {
		ev.ts, ev.host, ev.seal, ev.stop = ts, h, seal, stop
		ev.task, ev.route = task, route
	})
}

func (e *pipelined) fireStep(h Host, live []*tuple.Tuple) {
	if ah, ok := h.(AffineHost); ok && ah.Affine() {
		// Table-affine step: publish one event per pre-planned fire task,
		// routed to the consumer owning the task's shard.
		n := ah.Tasks()
		if n <= 1 {
			if n == 1 {
				ah.FireTask(0, 0)
			}
			return
		}
		h.FanOut()
		for i := 0; i < n; i++ {
			e.publish(h, nil, i, int64(ah.TaskRoute(i)), false, false)
		}
	} else {
		grain := ChunkGrain(len(live), e.consumers)
		if len(live) <= grain {
			// A lone segment gains nothing from the ring round-trip; fire it
			// on the coordinator.
			if len(live) > 0 {
				h.FireBatch(live, 0)
			}
			return
		}
		h.FanOut()
		for lo := 0; lo < len(live); lo += grain {
			e.publish(h, live[lo:min(lo+grain, len(live))], -1, -1, false, false)
		}
	}
	// Seal round: one marker per consumer. The markers stay residue-claimed
	// and their sequences cover every residue class mod the crew size, so
	// each consumer sees exactly one — after all its fire segments and
	// routed tasks — and sorts its own put run in parallel with its peers.
	for i := 0; i < e.consumers; i++ {
		e.publish(h, nil, -1, -1, true, false)
	}
	e.ring.WaitConsumed(e.ring.Cursor())
}

// Close publishes the stop sentinel and joins the crew.
func (e *pipelined) Close() {
	if !e.started || e.closed {
		e.closed = true
		return
	}
	e.closed = true
	e.publish(nil, nil, -1, -1, false, true)
	e.wg.Wait()
}
