package mpich

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// The collectives below are not part of the package: the tests use them to
// check point-to-point matching and broadcast ownership across ranks.

const (
	tagBarrier = tagAllToAll + 1 + iota
	tagBcast
	tagGather
)

// Barrier blocks until all ranks have entered it: a gather of tokens at
// rank 0 followed by a broadcast release.
func (c *Comm) Barrier() {
	if c.rank == 0 {
		for i := 1; i < c.Size(); i++ {
			c.recv(AnySource, tagBarrier)
		}
		for i := 1; i < c.Size(); i++ {
			c.send(i, tagBarrier, nil)
		}
	} else {
		c.send(0, tagBarrier, nil)
		c.recv(0, tagBarrier)
	}
}

// Bcast distributes root's value to every rank and returns it. All ranks must
// call it; non-root input values are ignored.
func (c *Comm) Bcast(root int, value any) any {
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i != root {
				c.send(i, tagBcast, value)
			}
		}
		return value
	}
	v, _ := c.recv(root, tagBcast)
	return v
}

// BcastFloat64s distributes root's slice; every rank receives a copy it owns.
func (c *Comm) BcastFloat64s(root int, data []float64) []float64 {
	v := c.Bcast(root, data)
	src := v.([]float64)
	if c.rank == root {
		return src
	}
	out := make([]float64, len(src))
	copy(out, src)
	return out
}

// Gather collects each rank's value at root; root receives a slice indexed
// by rank, others receive nil.
func (c *Comm) Gather(root int, value any) []any {
	if c.rank == root {
		out := make([]any, c.Size())
		out[root] = value
		for i := 0; i < c.Size()-1; i++ {
			v, from := c.recv(AnySource, tagGather)
			out[from] = v
		}
		return out
	}
	c.send(root, tagGather, value)
	return nil
}

var (
	opMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	opMin ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.send(1, 5, "hello")
			return nil
		}
		v, from := c.recv(0, 5)
		if v.(string) != "hello" || from != 0 {
			return fmt.Errorf("got %v from %d", v, from)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.send(1, 1, "first")
			c.send(1, 2, "second")
			return nil
		}
		// Receive out of order by tag: the tag-2 message must be delivered
		// even though tag-1 arrived first, and tag-1 must still be pending.
		v2, _ := c.recv(0, 2)
		v1, _ := c.recv(0, 1)
		if v2.(string) != "second" || v1.(string) != "first" {
			return fmt.Errorf("selective recv broken: %v, %v", v1, v2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			c.send(0, c.Rank(), c.Rank()*10)
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			v, from := c.recv(AnySource, AnyTag)
			if v.(int) != from*10 {
				return fmt.Errorf("payload %v from %d", v, from)
			}
			seen[from] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgs(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("expected error for world size 0")
	}
	w, _ := NewWorld(2)
	if _, err := w.Comm(5); err == nil {
		t.Error("expected error for out-of-range rank")
	}
	c, _ := w.Comm(0)
	if _, err := c.AllToAll(nil); err == nil {
		t.Error("expected error for a short AllToAll")
	}
}

func TestBarrier(t *testing.T) {
	var before, after atomic.Int32
	err := Run(4, func(c *Comm) error {
		before.Add(1)
		c.Barrier()
		// After the barrier, every rank must have incremented.
		if before.Load() != 4 {
			return fmt.Errorf("rank %d passed barrier with before=%d", c.Rank(), before.Load())
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 4 {
		t.Fatalf("after = %d, want 4", after.Load())
	}
}

func TestBcast(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		var v any
		if c.Rank() == 2 {
			v = c.Bcast(2, "payload")
		} else {
			v = c.Bcast(2, nil)
		}
		if v.(string) != "payload" {
			return fmt.Errorf("rank %d got %v", c.Rank(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFloat64sCopies(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		data := []float64{1, 2, 3}
		got := c.BcastFloat64s(0, data)
		if c.Rank() == 1 {
			got[0] = 99 // must not corrupt rank 0's slice
		}
		c.Barrier()
		if c.Rank() == 0 && data[0] != 1 {
			return errors.New("bcast receivers share the root's slice")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		local := []float64{float64(c.Rank()), 1}
		got := c.AllReduce(OpSum, local)
		if got[0] != 10 || got[1] != 5 { // 0+1+2+3+4, 5×1
			return fmt.Errorf("rank %d: AllReduce = %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMaxMin(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		v := float64(c.Rank())
		if mx := c.AllReduceScalar(opMax, v); mx != 3 {
			return fmt.Errorf("max = %g", mx)
		}
		if mn := c.AllReduceScalar(opMin, v); mn != 0 {
			return fmt.Errorf("min = %g", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		out := c.Gather(1, c.Rank()*2)
		if c.Rank() == 1 {
			for r := 0; r < 3; r++ {
				if out[r].(int) != r*2 {
					return fmt.Errorf("gathered[%d] = %v", r, out[r])
				}
			}
		} else if out != nil {
			return errors.New("non-root should receive nil")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		send := make([]any, 3)
		for i := range send {
			send[i] = fmt.Sprintf("%d->%d", c.Rank(), i)
		}
		got, err := c.AllToAll(send)
		if err != nil {
			return err
		}
		for from := 0; from < 3; from++ {
			want := fmt.Sprintf("%d->%d", from, c.Rank())
			if got[from].(string) != want {
				return fmt.Errorf("rank %d got %v from %d, want %s", c.Rank(), got[from], from, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllWrongLen(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := c.AllToAll(make([]any, 1))
		if err == nil {
			return errors.New("expected error for wrong send length")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	sentinel := errors.New("rank 2 failed")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestAllReduceDeterministic(t *testing.T) {
	// Rank-order folding must make repeated runs bit-identical even though
	// arrival order varies.
	run := func() []float64 {
		var out []float64
		Run(6, func(c *Comm) error {
			local := []float64{1e-16 * float64(c.Rank()+1), 1e16 * float64(c.Rank()+1)}
			got := c.AllReduce(OpSum, local)
			if c.Rank() == 0 {
				out = got
			}
			return nil
		})
		return out
	}
	a := run()
	for i := 0; i < 5; i++ {
		b := run()
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("AllReduce not deterministic: %v vs %v", a, b)
		}
	}
}
