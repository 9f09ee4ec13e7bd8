package simgrid

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var log []float64
	s.At(3, func() { log = append(log, 3) })
	s.At(1, func() { log = append(log, 1) })
	s.At(2, func() { log = append(log, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if !sort.Float64sAreSorted(log) {
		t.Errorf("events out of order: %v", log)
	}
	if s.Now() != 3 {
		t.Errorf("clock at %g, want 3", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := NewSim()
	var log []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { log = append(log, i) })
	}
	s.Run()
	for i := range log {
		if log[i] != i {
			t.Fatalf("same-time events not FIFO: %v", log)
		}
	}
}

func TestCascadingEvents(t *testing.T) {
	s := NewSim()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(1, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("cascade depth %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Errorf("clock %g, want 100", s.Now())
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := NewSim()
	s.At(10, func() {
		if err := s.At(5, func() {}); err == nil {
			t.Error("scheduling in the past should fail")
		}
	})
	s.Run()
	if err := s.At(-1, func() {}); err == nil {
		t.Error("negative time should fail")
	}
	if err := s.At(1, nil); err == nil {
		t.Error("nil function should fail")
	}
	// NaN compares false with everything: let in, it would sit in the queue
	// with no defined place in the order.
	if err := s.At(math.NaN(), func() {}); err == nil {
		t.Error("NaN time should fail")
	}
	if err := s.After(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay should fail")
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after refused schedules", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	n := s.RunUntil(3)
	if n != 3 || len(fired) != 3 {
		t.Errorf("RunUntil(3) fired %d events: %v", n, fired)
	}
	if s.Pending() != 2 {
		t.Errorf("%d pending, want 2", s.Pending())
	}
	if s.Now() != 3 {
		t.Errorf("clock %g", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Errorf("total fired %d", len(fired))
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		ok := true
		last := -1.0
		for i := 0; i < 50; i++ {
			tt := rng.Float64() * 100
			s.At(tt, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewSim()
	for i := 0; i < 7; i++ {
		s.At(float64(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Errorf("Fired = %d", s.Fired())
	}
}

// kernel is what the ordering property drives: Sim, and the reference below.
type kernel interface {
	At(t float64, fn func()) error
	Now() float64
	Run() int
	RunUntil(t float64) int
	Pending() int
}

// refSim is the ordering contract spelled out: every pending event in one
// list, sorted by (time, seq) before each step.
type refSim struct {
	pending []event
	now     float64
	seq     int64
}

func (r *refSim) Now() float64 { return r.now }
func (r *refSim) Pending() int { return len(r.pending) }

func (r *refSim) At(t float64, fn func()) error {
	if t < r.now || math.IsNaN(t) || fn == nil {
		return fmt.Errorf("refused")
	}
	r.seq++
	r.pending = append(r.pending, event{time: t, seq: r.seq, fn: fn})
	return nil
}

func (r *refSim) step(limit float64) bool {
	sort.Slice(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		return a.time < b.time || (a.time == b.time && a.seq < b.seq)
	})
	if len(r.pending) == 0 || r.pending[0].time > limit {
		return false
	}
	e := r.pending[0]
	r.pending = r.pending[1:]
	r.now = e.time
	e.fn()
	return true
}

func (r *refSim) Run() int { return r.RunUntil(math.Inf(1)) }

func (r *refSim) RunUntil(t float64) int {
	n := 0
	for r.step(t) {
		n++
	}
	if t > r.now && !math.IsInf(t, 1) {
		r.now = t
	}
	return n
}

// playSchedule drives one kernel through a schedule derived from seed and
// returns what it observed: every firing as "id@time", every refused
// schedule, and the counts at every RunUntil boundary. What a handler does
// depends only on its own id, so two kernels that fire in the same order see
// the same schedule. Times come from a handful of instants, so same-instant
// events are the rule, not the exception.
func playSchedule(k kernel, seed int64) []string {
	var log []string
	nextID := 0
	var plant func(t float64)
	plant = func(t float64) {
		id := nextID
		nextID++
		err := k.At(t, func() {
			log = append(log, fmt.Sprintf("%d@%g", id, k.Now()))
			rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
			for n := rng.Intn(4); n > 0 && nextID < 400; n-- {
				switch rng.Intn(4) {
				case 0:
					plant(k.Now()) // this very instant: fires after everything already due now
				case 1:
					plant(k.Now() + float64(rng.Intn(3))) // usually earlier than most of the queue
				case 2:
					plant(k.Now() + float64(rng.Intn(40)))
				case 3:
					plant(k.Now() - 1 - float64(rng.Intn(3))) // the past: refused
				}
			}
		})
		if err != nil {
			log = append(log, fmt.Sprintf("refused %d@%g at %g", id, t, k.Now()))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	// Arrivals planted up front in time order, then a shuffled batch on top.
	for i := 0; i < 30; i++ {
		plant(float64(i / 3))
	}
	for i := 0; i < 30; i++ {
		plant(float64(rng.Intn(25)))
	}
	for _, boundary := range []float64{0, 3.5, 3.5, 4, 11, 10} {
		fired := k.RunUntil(boundary)
		log = append(log, fmt.Sprintf("until %g: fired %d, pending %d, now %g", boundary, fired, k.Pending(), k.Now()))
		plant(k.Now() + float64(rng.Intn(5))) // scheduled between runs, from outside a handler
	}
	fired := k.Run()
	log = append(log, fmt.Sprintf("run: fired %d, pending %d, now %g", fired, k.Pending(), k.Now()))
	return log
}

// TestFiringOrderMatchesReferenceSort is the kernel's ordering contract:
// whatever is scheduled — at the current instant, earlier than what is
// queued, from handlers, across RunUntil boundaries — fires in exactly the
// order a sort by (time, seq) gives.
func TestFiringOrderMatchesReferenceSort(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		got, want := playSchedule(NewSim(), seed), playSchedule(&refSim{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d: kernel %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestSchedulingAllocatesNothing: once the queue has grown to its working
// size, scheduling an event and firing it allocates nothing — no boxed event,
// no interface conversion — on either way into the queue.
func TestSchedulingAllocatesNothing(t *testing.T) {
	s := NewSim()
	fn := func() {}
	oneRound := func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			s.At(base+float64(i), fn) // in time order
		}
		for i := 64; i > 0; i-- {
			s.At(base+float64(i)+0.5, fn) // against it
		}
		s.Run()
	}
	if allocs := testing.AllocsPerRun(10, oneRound); allocs != 0 {
		t.Errorf("128 events scheduled and fired allocated %v objects, want 0", allocs)
	}
}

// TestFiredClosureIsReleased: the slot an event leaves is zeroed, so the
// queue's backing array does not keep a fired handler alive.
func TestFiredClosureIsReleased(t *testing.T) {
	s := NewSim()
	for i := 0; i < 8; i++ {
		s.At(float64(i), func() {})
		s.At(float64(8-i)+0.5, func() {})
	}
	s.RunUntil(6)
	live := 0
	for _, backing := range [][]event{s.queue[:cap(s.queue)], s.lane.items[:cap(s.lane.items)]} {
		for _, e := range backing {
			if e.fn != nil {
				live++
			}
		}
	}
	if live != s.Pending() {
		t.Errorf("%d handlers still referenced by the queue, %d events pending", live, s.Pending())
	}
}

// TestRouteOfIsFNV1a: the routing hash is hash/fnv's 32-bit FNV-1a, on the
// service names the federation uses and on arbitrary strings.
func TestRouteOfIsFNV1a(t *testing.T) {
	want := func(s string, mas int) int {
		h := fnv.New32a()
		h.Write([]byte(s))
		return int(h.Sum32()) % mas
	}
	names := []string{"", "ramsesZoom2"}
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("svc%03d", i))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		names = append(names, string(b))
	}
	for _, name := range names {
		for _, mas := range []int{1, 2, 4, 7, 1 << 20} {
			if got := routeOf(name, mas); got != want(name, mas) {
				t.Fatalf("routeOf(%q, %d) = %d, hash/fnv gives %d", name, mas, got, want(name, mas))
			}
		}
	}
}
