package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The transport suite runs over real loopback sockets: almost every other
// suite in the repository uses the local: transport, so connection reuse,
// the retry-once rule, Server.Close and frame validation are pinned here.

// countingServer serves "obj" with an Echo that returns its body and counts
// its runs.
func countingServer(t *testing.T, listen string) (*Server, string, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	s := NewServer()
	s.Register("obj", func(method string, body []byte) ([]byte, error) {
		runs.Add(1)
		return body, nil
	})
	addr, err := s.Start(listen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr, &runs
}

func idleCount(addr string) int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle[addr])
}

// waitFor polls cond until it holds; the conditions waited on here (a
// goroutine has exited, a socket has been accepted) have no event to block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTransportReusesConnection(t *testing.T) {
	s, addr, _ := countingServer(t, "127.0.0.1:0")
	for i := 0; i < 10; i++ {
		if _, err := Invoke(addr, "obj", "Echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := idleCount(addr); got != 1 {
		t.Errorf("%d idle connections after sequential calls, want 1", got)
	}
	s.connMu.Lock()
	accepted := len(s.conns)
	s.connMu.Unlock()
	if accepted != 1 {
		t.Errorf("server holds %d connections after 10 sequential calls, want 1", accepted)
	}
}

// A peer that restarted on the same port leaves a dead connection in the
// pool. The next call fails on it before any response byte and is repeated
// exactly once on a fresh connection: it succeeds, and the handler ran once.
func TestTransportRestartRetriesOnce(t *testing.T) {
	s1, addr, runs1 := countingServer(t, "127.0.0.1:0")
	if _, err := Invoke(addr, "obj", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	_, addr2, runs2 := countingServer(t, addr)
	if addr2 != addr {
		t.Fatalf("restarted on %s, want %s", addr2, addr)
	}
	if got := idleCount(addr); got != 1 {
		t.Fatalf("%d pooled connections across the restart, want the stale one", got)
	}

	reply, err := Invoke(addr, "obj", "Echo", []byte("again"))
	if err != nil || string(reply) != "again" {
		t.Fatalf("call across the restart = %q, %v", reply, err)
	}
	if runs1.Load() != 1 || runs2.Load() != 1 {
		t.Errorf("handler runs: old server %d, new server %d, want 1 and 1", runs1.Load(), runs2.Load())
	}
	if got := idleCount(addr); got != 1 {
		t.Errorf("%d idle connections after the retry, want 1 (the fresh one)", got)
	}
}

// The same across a restart with a body in segments: the first attempt
// consumed part of what it was writing when the dead connection showed, and
// the second must still put the whole body on the wire.
func TestTransportRestartResendsEverySegment(t *testing.T) {
	in := &blobsBody{Blobs: [][]byte{make([]byte, 1<<20), []byte("between"), make([]byte, 3<<19), make([]byte, SegmentCut)}}
	rnd := rand.New(rand.NewSource(20))
	for _, blob := range in.Blobs {
		rnd.Read(blob)
	}
	want, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	s1, addr, runs1 := countingServer(t, "127.0.0.1:0")
	var out blobsBody
	if err := Call(addr, "obj", "Echo", in, &out); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	_, addr2, runs2 := countingServer(t, addr)
	if addr2 != addr {
		t.Fatalf("restarted on %s, want %s", addr2, addr)
	}
	if got := idleCount(addr); got != 1 {
		t.Fatalf("%d pooled connections across the restart, want the stale one", got)
	}

	out = blobsBody{}
	if err := Call(addr, "obj", "Echo", in, &out); err != nil {
		t.Fatalf("call across the restart: %v", err)
	}
	if got, _ := Encode(&out); !bytes.Equal(got, want) {
		t.Error("the body that arrived on the second attempt is not the body sent")
	}
	if runs1.Load() != 1 || runs2.Load() != 1 {
		t.Errorf("handler runs: old server %d, new server %d, want 1 and 1", runs1.Load(), runs2.Load())
	}
}

// Segments count towards the frame limit like any other byte: a typed reply
// and a request whose pieces sum past maxFrame are refused before a byte of
// them is written, with the errors a flat body of that size gets.
func TestTransportSegmentsSumAgainstTheFrameLimit(t *testing.T) {
	const pieces = 17
	shared := make([]byte, maxFrame/(pieces-1)) // never touched: seventeen views of the same 64 MiB
	huge := &blobsBody{Blobs: make([][]byte, pieces)}
	for i := range huge.Blobs {
		huge.Blobs[i] = shared
	}
	s := NewServer()
	s.RegisterMethods("obj", Methods{
		"Huge": func([]byte) (WireBody, error) { return huge, nil },
		"Drop": func([]byte) (WireBody, error) { return nil, nil },
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = Invoke(addr, "obj", "Huge", nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1073741824 byte frame limit") || !strings.HasPrefix(err.Error(), "rpc: reply of") {
		t.Errorf("reply of %d bytes in segments = %v, want the frame-limit error", huge.WireSize(), err)
	}
	err = Call(addr, "obj", "Drop", huge, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1073741824 byte frame limit") || !strings.HasPrefix(err.Error(), "rpc: request of") {
		t.Errorf("request of %d bytes in segments = %v, want the frame-limit error", huge.WireSize(), err)
	}
	// Both refusals left the connection in step.
	if _, err := Invoke(addr, "obj", "Drop", []byte("x")); err != nil {
		t.Errorf("call after the refusals: %v", err)
	}
}

// With the peer gone for good, the retry's dial is refused: the call fails
// with ErrUnavailable instead of looping.
func TestTransportStaleConnectionPeerGone(t *testing.T) {
	s, addr, _ := countingServer(t, "127.0.0.1:0")
	if _, err := Invoke(addr, "obj", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err := Invoke(addr, "obj", "Echo", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call to a dead peer = %v, want ErrUnavailable", err)
	}
	if got := idleCount(addr); got != 0 {
		t.Errorf("%d connections pooled to a dead peer", got)
	}
}

// A failure on a fresh connection is final: one dial, no retry.
func TestTransportFreshFailureIsNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var accepts atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close() // hang up without answering
		}
	}()
	_, err = Invoke(addr, "obj", "Echo", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call to a peer that hangs up = %v, want ErrUnavailable", err)
	}
	ln.Close()
	if got := accepts.Load(); got != 1 {
		t.Errorf("peer saw %d connections, want 1 (no retry on a fresh connection)", got)
	}
	// Nothing listening any more: refused, again without a loop.
	if _, err := Invoke(addr, "obj", "Echo", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("refused dial = %v, want ErrUnavailable", err)
	}
}

func TestTransportCloseWithIdleConnections(t *testing.T) {
	s, addr, _ := countingServer(t, "127.0.0.1:0")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Invoke(addr, "obj", "Echo", nil)
		}()
	}
	wg.Wait()
	// The pool keeps its end of the connections open across Close.
	if idleCount(addr) == 0 {
		t.Fatal("no pooled connections")
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on idle connections")
	}
}

func TestTransportCloseLetsInFlightCallFinish(t *testing.T) {
	entered, unblock := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	s := NewServer()
	s.Register("obj", func(string, []byte) ([]byte, error) {
		close(entered)
		<-unblock
		finished.Store(true)
		return []byte("done"), nil
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		reply []byte
		err   error
	}
	call := make(chan result, 1)
	go func() {
		reply, err := Invoke(addr, "obj", "Slow", nil)
		call <- result{reply, err}
	}()
	<-entered
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Close must now be waiting for the handler; let it go.
	close(unblock)
	if r := <-call; r.err != nil || string(r.reply) != "done" {
		t.Fatalf("in-flight call across Close = %q, %v", r.reply, r.err)
	}
	<-closed
	if !finished.Load() {
		t.Error("Close returned before the in-flight handler finished")
	}
	if _, err := Invoke(addr, "obj", "Slow", nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("call after Close = %v, want ErrUnavailable", err)
	}
}

// One call in flight per connection: a peer that accepts and never answers
// blocks the caller that drew it, and a concurrent caller to the same address
// dials a second connection and is served.
func TestTransportHungPeerBlocksOnlyItsCaller(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	s := NewServer()
	s.Register("obj", func(_ string, body []byte) ([]byte, error) { return body, nil })
	defer s.Close()
	hung := make(chan net.Conn, 1)
	go func() {
		first, err := ln.Accept()
		if err != nil {
			return
		}
		hung <- first // accepted, never read, never answered
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serveConn(c)
		}
	}()

	stuck := make(chan error, 1)
	go func() {
		_, err := Invoke(addr, "obj", "Echo", []byte("a"))
		stuck <- err
	}()
	silent := <-hung
	reply, err := Invoke(addr, "obj", "Echo", []byte("b"))
	if err != nil || string(reply) != "b" {
		t.Fatalf("concurrent call beside a hung one = %q, %v", reply, err)
	}
	select {
	case err := <-stuck:
		t.Fatalf("call to the silent connection returned early: %v", err)
	default:
	}
	silent.Close()
	if err := <-stuck; !errors.Is(err, ErrUnavailable) {
		t.Errorf("call on the hung-up connection = %v, want ErrUnavailable", err)
	}
}

// 64 callers inside the handler at once need 64 connections; once they have
// returned only the idle cap is kept, on both ends.
func TestTransportIdleCap(t *testing.T) {
	const callers = 64
	var inside sync.WaitGroup
	inside.Add(callers)
	s := NewServer()
	s.Register("obj", func(string, []byte) ([]byte, error) {
		inside.Done()
		inside.Wait()
		return nil, nil
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Invoke(addr, "obj", "Meet", nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := idleCount(addr); got != maxIdlePerAddr {
		t.Errorf("%d idle connections after %d concurrent callers, want the cap %d", got, callers, maxIdlePerAddr)
	}
	waitFor(t, "the server to drop the surplus connections", func() bool {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		return len(s.conns) == maxIdlePerAddr
	})
}

// Connections idle past idleReapAge are closed by a later call to any
// address, so sockets to peers never called again do not pile up.
func TestTransportIdleReap(t *testing.T) {
	_, gone, _ := countingServer(t, "127.0.0.1:0")
	_, live, _ := countingServer(t, "127.0.0.1:0")
	for _, addr := range []string{gone, live} {
		if _, err := Invoke(addr, "obj", "Echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	pool.Lock()
	pool.idle[gone][0].idleSince = time.Now().Add(-2 * idleReapAge)
	pool.swept = time.Now().Add(-2 * idleReapAge)
	pool.Unlock()
	if _, err := Invoke(live, "obj", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	pool.Lock()
	_, kept := pool.idle[gone]
	pool.Unlock()
	if kept {
		t.Error("connection idle for twice idleReapAge survived a sweep")
	}
	if got := idleCount(live); got != 1 {
		t.Errorf("%d idle connections to the live peer after the sweep, want 1", got)
	}
}

func TestTransport4MiBRoundTrip(t *testing.T) {
	_, addr, _ := countingServer(t, "127.0.0.1:0")
	body := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(body)
	for i := 0; i < 2; i++ { // fresh connection, then a reused one
		reply, err := Invoke(addr, "obj", "Echo", body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, body) {
			t.Fatalf("4 MiB body changed in flight (call %d)", i)
		}
	}
}

// A frame above readChunk is read in steps; the result is still one slice
// holding exactly the body.
func TestTransportBodyAboveReadChunk(t *testing.T) {
	_, addr, _ := countingServer(t, "127.0.0.1:0")
	body := make([]byte, readChunk+readChunk/2+7)
	rand.New(rand.NewSource(2)).Read(body)
	reply, err := Invoke(addr, "obj", "Echo", body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, body) {
		t.Fatal("chunked body changed in flight")
	}
}

// The sentinels survive the wire: the same error reads the same over TCP and
// over local:. ROADMAP item 5 (failover only on ErrUnavailable, never on an
// application error) builds on this.
func TestTransportErrorsSurviveTheWire(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", echoHandler())
	tcp, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	local, err := ServeLocal("transport-errors", s)
	if err != nil {
		t.Fatal(err)
	}
	var texts [2]string
	for i, addr := range []string{tcp, local} {
		err := Call(addr, "ghost", "Echo", text("x"), nil)
		if !errors.Is(err, ErrNoObject) || !strings.Contains(err.Error(), `"ghost"`) {
			t.Errorf("%s: missing object = %v, want ErrNoObject naming it", addr, err)
		}
		if errors.Is(err, ErrUnavailable) {
			t.Errorf("%s: a missing object is an answer, not unavailability: %v", addr, err)
		}
		err = Call(addr, "obj", "Fail", nil, nil)
		if err == nil || err.Error() != "deliberate failure" {
			t.Errorf("%s: handler error = %v, want its text unchanged", addr, err)
		}
		if errors.Is(err, ErrNoObject) || errors.Is(err, ErrUnavailable) {
			t.Errorf("%s: handler error matches a transport sentinel: %v", addr, err)
		}
		texts[i] = Call(addr, "ghost", "Echo", text("x"), nil).Error()
	}
	if texts[0] != texts[1] {
		t.Errorf("missing-object text differs: tcp %q, local %q", texts[0], texts[1])
	}
	// A call that got an error answer leaves its connection healthy.
	if got := idleCount(tcp); got != 1 {
		t.Errorf("%d idle connections after error replies, want 1", got)
	}
}

// rawExchange writes raw bytes to a live server and returns what it answers
// until it closes the connection (or the deadline passes).
func rawExchange(t *testing.T, addr string, raw []byte) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	out, err := io.ReadAll(c) // a reset is as good a close as an EOF
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept the connection open after %x: %v", raw[:min(len(raw), 16)], err)
	}
	return out
}

func frameOf(payload ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func TestTransportMalformedFramesCloseTheConnection(t *testing.T) {
	_, addr, runs := countingServer(t, "127.0.0.1:0")
	huge := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	cases := map[string][]byte{
		"zero length":          frameOf(),
		"shorter than minimum": frameOf(frameVersion, 0, 0),
		"oversized":            append(huge, make([]byte, 64)...),
		"object overruns":      frameOf(frameVersion, 0xff, 0xff, 'o', 0, 0),
		"method overruns":      frameOf(frameVersion, 0, 1, 'o', 0, 9, 'm'),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, raw := range cases {
		if out := rawExchange(t, addr, raw); len(out) != 0 {
			t.Errorf("%s: server answered %x, want a bare close", name, out)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("malformed frames made the process allocate %d bytes", grew)
	}
	// A frame cut short is dropped when the peer hangs up, handler not run.
	whole, _ := requestHeader("obj", "Echo", 100)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(whole)
	c.Close()
	if _, err := Invoke(addr, "obj", "Echo", []byte("still here")); err != nil {
		t.Fatalf("server unusable after malformed frames: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1 (no malformed frame reaches it)", got)
	}
}

// A request of another frame version gets a clean error naming both
// versions, and the connection stays in step for the next request.
func TestTransportVersionMismatch(t *testing.T) {
	_, addr, runs := countingServer(t, "127.0.0.1:0")
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := &clientConn{Conn: c, br: newReader(c)}
	for _, v := range []byte{1, 2} {
		old := frameOf(v, 0, 3, 'o', 'b', 'j', 0, 0, 'x')
		frame, _, err := cc.roundTrip(old, segments{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = replyOf(frame[0], frame[1:])
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("is version %d", v)) || !strings.Contains(err.Error(), "speaks version 3") {
			t.Fatalf("version mismatch = %v, want an error naming versions %d and 3", err, v)
		}
	}
	if runs.Load() != 0 {
		t.Error("handler ran for a frame of another version")
	}
	header, _ := requestHeader("obj", "Echo", 2)
	frame, _, err := cc.roundTrip(header, segments{head: []byte("ok")})
	if err != nil || frame[0] != statusOK || string(frame[1:]) != "ok" {
		t.Fatalf("request after the mismatch = %x, %v", frame, err)
	}
}

func TestTransportGoroutinesReturnToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, addr, _ := countingServer(t, "127.0.0.1:0")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				Invoke(addr, "obj", "Echo", []byte("x"))
			}
		}()
	}
	wg.Wait()
	s.Close()
	waitFor(t, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// streamConn is a connection whose peer already sent everything it ever
// will: reads drain in, writes collect in out.
type streamConn struct {
	net.Conn // nil: only Read, Write and Close are used
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *streamConn) Close() error                { return nil }

// FuzzServeFrame feeds arbitrary bytes to the server's connection loop. It
// must never panic, must hand the handler only what a well-formed frame
// carried, and everything it writes must parse as response frames.
func FuzzServeFrame(f *testing.F) {
	good, _ := requestHeader("obj", "Echo", 5)
	good = append(good, "hello"...)
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good...))
	f.Add(good[:len(good)-3])
	f.Add(frameOf())
	f.Add(frameOf(frameVersion, 0xff, 0xff))
	f.Add(frameOf(frameVersion+1, 0, 0, 0, 0))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer()
		s.Register("obj", func(method string, body []byte) ([]byte, error) {
			if len(method)+len(body) > len(data) {
				t.Errorf("handler got %d bytes out of a %d byte stream", len(method)+len(body), len(data))
			}
			return body, nil
		})
		conn := &streamConn{in: bytes.NewReader(data)}
		s.serveConn(conn)
		br := newReader(&conn.out)
		for {
			frame, started, err := readFrame(br, minResponse)
			if err != nil {
				if started {
					t.Fatalf("server wrote a broken response stream: %v", err)
				}
				return
			}
			if frame[0] > statusError {
				t.Fatalf("server wrote unknown status %d", frame[0])
			}
		}
	})
}

// FuzzReadResponse feeds arbitrary bytes to the client's response reader.
func FuzzReadResponse(f *testing.F) {
	f.Add(frameOf(statusOK, 'h', 'i'))
	f.Add(frameOf(statusNoObject, 'o'))
	f.Add(frameOf(statusError, 'n', 'o'))
	f.Add(frameOf(9))
	f.Add(frameOf())
	f.Add([]byte{0, 0})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &streamConn{in: bytes.NewReader(data)}
		cc := &clientConn{Conn: conn, br: newReader(conn)}
		header, _ := requestHeader("obj", "Echo", 0)
		frame, started, err := cc.roundTrip(header, segments{})
		if err != nil {
			if started != (len(data) > 0) {
				t.Fatalf("started = %v on a %d byte response", started, len(data))
			}
			return
		}
		if len(frame) < minResponse || len(frame) > len(data)-4 {
			t.Fatalf("frame of %d bytes out of a %d byte response", len(frame), len(data))
		}
		body, err := replyOf(frame[0], frame[1:])
		if err == nil && frame[0] != statusOK {
			t.Fatalf("status %d read as success", frame[0])
		}
		if err == nil && !bytes.Equal(body, data[5:4+len(frame)]) {
			t.Fatal("body differs from the bytes on the wire")
		}
	})
}
