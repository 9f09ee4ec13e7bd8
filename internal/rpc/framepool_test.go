package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// Large request frames are read into recycled buffers (framePool). These
// tests pin what that must never change: every frame reads back exactly, a
// handler's body ends where its frame does, the frame of a method that
// failed or kept it is never handed to a later request, and a buffer far
// larger than the frame is let go.

// Frames of mixed sizes on one connection, each larger or smaller than the
// buffer the one before it left behind, arrive intact and capped.
func TestTransportLargeFramesOfMixedSizes(t *testing.T) {
	// One P: the buffer a request returns is the one the next draws.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewServer()
	s.RegisterMethods("obj", Methods{
		"Sum": func(body []byte) (WireBody, error) {
			if cap(body) != len(body) {
				return nil, fmt.Errorf("a %d byte body has capacity %d: an append would run into a recycled buffer", len(body), cap(body))
			}
			sum := Int(crc32.ChecksumIEEE(body))
			return &sum, nil
		},
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	// Each size after the first two is read into the buffer the one before
	// left (it holds the frame, at most twice over) or into a fresh one.
	for _, n := range []int{SegmentCut - 1, SegmentCut, 64 << 10, 40 << 10, 16 << 10, 1 << 20, 5 << 10, 1<<20 + 3, 600 << 10, SegmentCut, 2 << 20} {
		body := make([]byte, n)
		rng.Read(body)
		reply, err := Invoke(addr, "obj", "Sum", body)
		if err != nil {
			t.Fatal(err)
		}
		var sum Int
		if err := Decode(reply, &sum); err != nil || uint32(sum) != crc32.ChecksumIEEE(body) {
			t.Fatalf("a %d byte body changed in flight (%v)", n, err)
		}
	}
}

// A method that hands its body to a goroutine and then fails, or answers
// Keep, keeps its frame: requests of the same size that follow on the
// connection are read into other memory, and the goroutine still reads its
// own bytes. The failing method is the batch executor's case, whose
// abandoned walltime attempt can still be inside the solve when Execute
// gives up.
func TestTransportFailedOrKeepingMethodKeepsItsFrame(t *testing.T) {
	// One P: the buffer a request returns is the one the next draws.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const size, later = 256 << 10, 8
	for _, tc := range []struct {
		method string
		reply  WireBody
		err    error
	}{
		{"Abandon", nil, errors.New("gave up")},
		{"Keep", Keep, nil},
	} {
		check, done := make(chan struct{}), make(chan bool)
		s := NewServer()
		s.RegisterMethods("obj", Methods{
			tc.method: func(body []byte) (WireBody, error) {
				want := bytes.Clone(body)
				go func() {
					<-check
					done <- bytes.Equal(body, want)
				}()
				return tc.reply, tc.err
			},
			"Sink": func([]byte) (WireBody, error) { return nil, nil },
		})
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		call := func(method string, fill byte) ([]byte, error) {
			return Invoke(addr, "obj", method, bytes.Repeat([]byte{fill}, size))
		}
		if _, err := call("Sink", 1); err != nil { // leave a buffer of the size in the pool
			t.Fatal(err)
		}
		reply, err := call(tc.method, 2)
		if fmt.Sprint(err) != fmt.Sprint(tc.err) || len(reply) != 0 {
			t.Fatalf("%s answered %d bytes and %v, want none and %v", tc.method, len(reply), err, tc.err)
		}
		for i := 0; i < later; i++ {
			if _, err := call("Sink", byte(3+i)); err != nil {
				t.Fatal(err)
			}
		}
		close(check)
		if !<-done {
			t.Errorf("%s: after %d more requests of %d bytes, the method's goroutine read another request's bytes", tc.method, later, size)
		}
		s.Close()
	}
}

// A buffer more than twice the size of the frame it is drawn for is dropped:
// one large request does not pin its memory under every smaller one that
// follows.
func TestTransportSmallFrameDropsALargeBuffer(t *testing.T) {
	// One P: the buffer put back is the one drawn next.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const large, small = 1 << 20, 64 << 10
	request := func(n int) *bufio.Reader {
		frame := binary.BigEndian.AppendUint32(nil, uint32(n))
		return bufio.NewReader(bytes.NewReader(append(frame, make([]byte, n)...)))
	}
	for _, tc := range []struct {
		n    int
		keep bool
	}{
		{small, false}, // a buffer sixteen times the frame
		{large / 2, true},
		{large/2 - 1, false}, // just more than twice
	} {
		// Several tries, as the race detector's pool drops a quarter of
		// what it is handed.
		kept := false
		for try := 0; try < 8; try++ {
			big := make([]byte, large)
			framePool.Put(&big)
			frame, buf, err := readRequest(request(tc.n))
			if err != nil || len(frame) != tc.n {
				t.Fatalf("read %d bytes of a %d byte frame: %v", len(frame), tc.n, err)
			}
			kept = kept || cap(*buf) == large
		}
		if kept != tc.keep {
			t.Errorf("a %d byte frame drawn a %d byte buffer: kept it %v, want %v", tc.n, large, kept, tc.keep)
		}
	}
}
