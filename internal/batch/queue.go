package batch

import (
	"math"
	"sort"
	"time"
)

// Entry is one reservation in a Queue: an attempt waiting for nodes or
// holding them. The caller fills Job, Nodes, WallS and Sized; the queue
// fills the rest.
type Entry[J any] struct {
	Job   J
	Nodes int
	// WallS is the granted walltime in seconds: the release bound the
	// shadow is built from, and what must fit a backfill window.
	WallS float64
	// Sized marks a walltime derived from a trusted CoRI forecast; the
	// backfill pass tries these candidates first.
	Sized bool

	EnqueueS   float64 // when Push queued the entry
	StartS     float64 // when Schedule started it
	Backfilled bool    // started ahead of FIFO order
	// HeadBoundS is the tightest shadow bound a backfill pass promised the
	// entry while it was the protected head of the queue, or -1 when no
	// pass backfilled against it.
	HeadBoundS float64
}

// Queue is the FIFO queue with conservative backfilling of an OAR-style
// cluster. It has no clock of its own: every time is seconds on the
// caller's clock. System drives it on the wall clock and the simulator's
// batch replay (simgrid.SimulateBatchQueue) in virtual time, so both run
// one scheduling pass. A Queue is not safe for concurrent use.
type Queue[J any] struct {
	backfill bool
	free     int
	waiting  []*Entry[J]
	running  []*Entry[J] // in start order
}

// NewQueue returns an empty queue over nodes free nodes; backfill enables
// conservative backfilling.
func NewQueue[J any](nodes int, backfill bool) *Queue[J] {
	return &Queue[J]{backfill: backfill, free: nodes}
}

// Push queues e at the tail at time now.
func (q *Queue[J]) Push(e *Entry[J], now float64) {
	e.EnqueueS, e.HeadBoundS = now, -1
	q.waiting = append(q.waiting, e)
}

// Release returns the nodes of a running entry to the pool.
func (q *Queue[J]) Release(e *Entry[J]) {
	for i, r := range q.running {
		if r == e {
			q.running = append(q.running[:i], q.running[i+1:]...)
			q.free += e.Nodes
			return
		}
	}
}

// Free, Waiting and Running count free nodes, queued entries and running
// entries.
func (q *Queue[J]) Free() int    { return q.free }
func (q *Queue[J]) Waiting() int { return len(q.waiting) }
func (q *Queue[J]) Running() int { return len(q.running) }

// Schedule starts every queued entry that may start at now and calls start
// for each, in start order. The head starts while it fits. With backfill, a
// later entry may start when it fits the free nodes and its walltime ends
// before the head's shadow bound: the earliest time enough nodes free up
// for the head if every running entry holds its nodes for its full
// walltime. Candidates are tried forecast-sized first (their tight
// walltimes waste the least of the window), then by tighter walltime, then
// in queue order.
func (q *Queue[J]) Schedule(now float64, start func(*Entry[J])) {
	for len(q.waiting) > 0 && q.waiting[0].Nodes <= q.free {
		q.start(q.waiting[0], now, false, start)
		q.waiting = q.waiting[1:]
	}
	if !q.backfill || len(q.waiting) < 2 || q.free == 0 {
		return
	}
	head := q.waiting[0]
	shadow := q.shadow(head.Nodes)
	window := shadow - now
	fit := make([]*Entry[J], 0, len(q.waiting)-1)
	for _, e := range q.waiting[1:] {
		if e.Nodes <= q.free && ns(e.WallS) < ns(window) {
			fit = append(fit, e)
		}
	}
	sort.SliceStable(fit, func(i, k int) bool {
		if fit[i].Sized != fit[k].Sized {
			return fit[i].Sized
		}
		return ns(fit[i].WallS) < ns(fit[k].WallS)
	})
	picked := false
	for _, e := range fit {
		if e.Nodes > q.free {
			continue
		}
		if !picked {
			// The bound this pass promises the head; every later start
			// must keep it.
			if head.HeadBoundS < 0 || shadow < head.HeadBoundS {
				head.HeadBoundS = shadow
			}
			picked = true
		}
		q.start(e, now, true, start)
	}
	if !picked {
		return
	}
	rest := q.waiting[:1]
	for _, e := range q.waiting[1:] {
		if !e.Backfilled {
			rest = append(rest, e)
		}
	}
	q.waiting = rest
}

func (q *Queue[J]) start(e *Entry[J], now float64, backfilled bool, start func(*Entry[J])) {
	q.free -= e.Nodes
	q.running = append(q.running, e)
	e.StartS, e.Backfilled = now, backfilled
	start(e)
}

// shadow is the earliest time need nodes are free, assuming every running
// entry holds its nodes for its full walltime.
func (q *Queue[J]) shadow(need int) float64 {
	type release struct {
		at    float64
		nodes int
	}
	rel := make([]release, len(q.running))
	for i, e := range q.running {
		rel[i] = release{at: e.StartS + e.WallS, nodes: e.Nodes}
	}
	sort.Slice(rel, func(i, k int) bool { return rel[i].at < rel[k].at })
	avail := q.free
	for _, r := range rel {
		avail += r.nodes
		if avail >= need {
			return r.at
		}
	}
	return math.Inf(1) // need exceeds the cluster: callers validate against it
}

// ns truncates seconds to whole nanoseconds, the grain at which walltimes
// compare: the live queue's times are nanosecond clock readings.
func ns(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
