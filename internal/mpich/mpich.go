// Package mpich is a small in-process message-passing substrate with MPI
// semantics: ranks, point-to-point send/receive with tag matching, and the
// collectives (reduce, all-to-all) the parallel RAMSES3d solver
// needs. The paper's solver runs under MPI on a cluster; here each
// rank is a goroutine and the interconnect is Go channels, which preserves
// the SPMD program structure while staying inside one address space.
package mpich

import (
	"fmt"
	"sync"
)

// AnySource matches a message from any rank in recv.
const AnySource = -1

// AnyTag matches a message with any tag in recv.
const AnyTag = -1

// tags of the collectives' traffic.
const (
	tagReduce = 1<<28 + iota
	tagAllToAll
)

// message is one point-to-point envelope.
type message struct {
	src     int
	tag     int
	payload any
}

// World is a communicator universe of a fixed number of ranks.
type World struct {
	size      int
	mailboxes []chan message
}

// NewWorld creates a World with the given number of ranks. Mailboxes are
// buffered so that the eager-send pattern common in SPMD code does not
// deadlock for modest message counts.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpich: world size must be positive, got %d", size)
	}
	w := &World{size: size, mailboxes: make([]chan message, size)}
	for i := range w.mailboxes {
		w.mailboxes[i] = make(chan message, 64*size)
	}
	return w, nil
}

// Comm is one rank's endpoint into a World. Comm methods are not safe for
// concurrent use by multiple goroutines, mirroring MPI's per-rank model.
type Comm struct {
	world   *World
	rank    int
	pending []message // out-of-order messages parked by selective Recv
}

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) (*Comm, error) {
	if r < 0 || r >= w.size {
		return nil, fmt.Errorf("mpich: rank %d out of range [0,%d)", r, w.size)
	}
	return &Comm{world: w, rank: r}, nil
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// send delivers payload to rank dst with the given tag. It blocks only if
// dst's mailbox is full (rendezvous fallback), like a standard-mode MPI send.
func (c *Comm) send(dst, tag int, payload any) {
	c.world.mailboxes[dst] <- message{src: c.rank, tag: tag, payload: payload}
}

// recv blocks until a message matching (src, tag) arrives and returns its
// payload and actual source. AnySource / AnyTag are wildcards. Messages that
// arrive out of matching order are parked and delivered to later calls.
func (c *Comm) recv(src, tag int) (any, int) {
	match := func(m message) bool {
		return (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
	}
	for i, m := range c.pending {
		if match(m) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return m.payload, m.src
		}
	}
	for {
		m := <-c.world.mailboxes[c.rank]
		if match(m) {
			return m.payload, m.src
		}
		c.pending = append(c.pending, m)
	}
}

// ReduceOp combines two float64 values in a reduction.
type ReduceOp func(a, b float64) float64

// OpSum is the summing reduction.
var OpSum ReduceOp = func(a, b float64) float64 { return a + b }

// AllReduce element-wise reduces local slices across all ranks; every rank
// receives the combined result. len(local) must agree across ranks.
// Contributions are folded in rank order so floating-point results are
// bit-for-bit reproducible run to run.
func (c *Comm) AllReduce(op ReduceOp, local []float64) []float64 {
	if c.rank == 0 {
		contribs := make([][]float64, c.Size())
		contribs[0] = local
		for i := 1; i < c.Size(); i++ {
			v, from := c.recv(AnySource, tagReduce)
			contribs[from] = v.([]float64)
		}
		acc := make([]float64, len(local))
		copy(acc, contribs[0])
		for r := 1; r < c.Size(); r++ {
			for j := range acc {
				acc[j] = op(acc[j], contribs[r][j])
			}
		}
		for i := 1; i < c.Size(); i++ {
			c.send(i, tagReduce, acc)
		}
		return acc
	}
	c.send(0, tagReduce, local)
	v, _ := c.recv(0, tagReduce)
	shared := v.([]float64)
	out := make([]float64, len(shared))
	copy(out, shared)
	return out
}

// AllReduceScalar reduces a single value across all ranks.
func (c *Comm) AllReduceScalar(op ReduceOp, v float64) float64 {
	return c.AllReduce(op, []float64{v})[0]
}

// AllToAll sends send[i] to rank i and returns the slice of payloads received
// from every rank (indexed by source). send must have world-size entries.
// Used for particle migration after each drift.
func (c *Comm) AllToAll(send []any) ([]any, error) {
	if len(send) != c.Size() {
		return nil, fmt.Errorf("mpich: AllToAll needs %d entries, got %d", c.Size(), len(send))
	}
	for i := 0; i < c.Size(); i++ {
		if i != c.rank {
			c.send(i, tagAllToAll, send[i])
		}
	}
	out := make([]any, c.Size())
	out[c.rank] = send[c.rank]
	for i := 0; i < c.Size()-1; i++ {
		v, from := c.recv(AnySource, tagAllToAll)
		out[from] = v
	}
	return out, nil
}

// Run executes fn as an SPMD program across size ranks, one goroutine per
// rank, and returns the first error (or panic, converted) any rank produced.
func Run(size int, fn func(*Comm) error) error {
	w, err := NewWorld(size)
	if err != nil {
		return err
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		comm, err := w.Comm(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(r int, comm *Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpich: rank %d panicked: %v", r, p)
				}
			}()
			errs[r] = fn(comm)
		}(r, comm)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
