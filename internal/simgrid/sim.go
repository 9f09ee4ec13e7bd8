// Package simgrid is a deterministic discrete-event simulator for the DIET
// platform. The paper's experiment ran 16h18m on five Grid'5000 sites; this
// package replays the same campaign — same deployment, same request pattern,
// same scheduling policies — in virtual time, reproducing the shape of every
// measured quantity (Figures 5 and 6, and the §6.2 totals) in milliseconds
// of real time. The kernel is a classic event queue with a virtual clock.
//
// The simulator mirrors the live middleware's adaptive layers exactly: each
// SeD can host the real cori.Monitor driven by the virtual clock, batch
// reservations are sized by the real batch.WalltimePolicy (with overrun
// kills and requeues), and estimates advertise replanned powers via
// PlannedPower. The ablation drivers quantify each layer — scheduling
// policies (RunExperiment/RunExperimentRounds), cold-vs-trained forecasting
// (RunForecastAblation), and the closed deployment+reservation loop
// (RunDeployAblation).
package simgrid

import (
	"fmt"
	"math"
)

// event is one scheduled callback.
type event struct {
	time float64 // virtual seconds
	seq  int64   // tie-break for determinism
	fn   func()
}

// before is the firing order: by time, then by scheduling order. seq is
// unique, so the order is total whatever the layout of the queue.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// fifo is a first-in-first-out queue that leaves its backlog where it is: a
// pop advances head and zeroes the slot it leaves, so what was popped is not
// kept alive, and the backing array is reused from the start once drained.
type fifo[T any] struct {
	items []T // waiting entries are items[head:]
	head  int
}

func (q *fifo[T]) len() int  { return len(q.items) - q.head }
func (q *fifo[T]) first() *T { return &q.items[q.head] }
func (q *fifo[T]) last() *T  { return &q.items[len(q.items)-1] }
func (q *fifo[T]) push(v T)  { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Sim is a discrete-event simulation with a virtual clock in seconds.
// Events scheduled for the same instant fire in scheduling order.
//
// Pending events are stored by value, each in one of two places. An event
// not before the last one in lane is appended to it — arrivals planted up
// front in time order, a serial server's next completion — so lane is sorted
// by construction; every other event goes to the heap. The next event to
// fire is the earlier of the two heads.
type Sim struct {
	queue []event     // binary min-heap on before
	lane  fifo[event] // sorted on before
	now   float64
	seq   int64
}

// NewSim returns an empty simulation at t=0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t (>= Now). Beyond the growth of
// the queue's backing array it allocates nothing.
func (s *Sim) At(t float64, fn func()) error {
	if t < s.now || math.IsNaN(t) {
		return fmt.Errorf("simgrid: cannot schedule event at %g, now is %g", t, s.now)
	}
	if fn == nil {
		return fmt.Errorf("simgrid: nil event function")
	}
	s.seq++
	e := event{time: t, seq: s.seq, fn: fn}
	if s.lane.len() == 0 || !e.before(s.lane.last()) {
		s.lane.push(e)
		return nil
	}
	// Sift up: parents later than e move down into the hole.
	s.queue = append(s.queue, event{})
	i := len(s.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s.queue[parent]) {
			break
		}
		s.queue[i] = s.queue[parent]
		i = parent
	}
	s.queue[i] = e
	return nil
}

// After schedules fn dt seconds from now (dt >= 0).
func (s *Sim) After(dt float64, fn func()) error { return s.At(s.now+dt, fn) }

// peek returns the earliest pending event — the lane's head or the heap's
// root; the caller has checked Pending.
func (s *Sim) peek() *event {
	if s.lane.len() > 0 && (len(s.queue) == 0 || s.lane.first().before(&s.queue[0])) {
		return s.lane.first()
	}
	return &s.queue[0]
}

// pop removes and returns the earliest event. The slot it vacates is zeroed,
// so a fired closure is not kept alive by a backing array.
func (s *Sim) pop() event {
	if s.lane.len() > 0 && s.peek() == s.lane.first() {
		return s.lane.pop()
	}
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	s.queue = q[:n]
	if n == 0 {
		return top
	}
	// Sift down: the earlier child moves up into the hole until last fits.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// fire advances the clock to the earliest event and runs it.
func (s *Sim) fire() {
	e := s.pop()
	s.now = e.time
	e.fn()
}

// Run processes events until the queue is empty and returns the count.
func (s *Sim) Run() int {
	n := 0
	for s.Pending() > 0 {
		s.fire()
		n++
	}
	return n
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.queue) + s.lane.len() }
