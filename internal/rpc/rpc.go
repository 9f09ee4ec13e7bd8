// Package rpc is the distributed-object layer DIET builds on. The real DIET
// uses CORBA (omniORB) for transparent remote method invocation; this
// package provides the same facility with Go primitives: named objects
// exposing methods, invoked over persistent TCP connections carrying
// length-prefixed binary frames (wire.go, pool.go), plus an in-process
// "local" transport so whole deployments can run inside one test binary
// without sockets.
//
// Addresses are either "tcp:host:port" (or a bare "host:port") for network
// objects, or "local:name" for in-process objects registered with ServeLocal.
package rpc

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Handler dispatches one method call on one object and answers with the
// encoded reply. It may keep body: the frame of a request to a Handler is
// never reused.
type Handler func(method string, body []byte) ([]byte, error)

// Method handles one method of an object: it decodes its request from body
// and answers with its reply, nil for none, which the server encodes. body
// is the method's until it returns, and the reply may alias it: over tcp a
// large request frame is reused once the reply is sent, unless the method
// failed or answered Keep (framePool). Whatever else the method keeps
// longer, it copies.
type Method func(body []byte) (WireBody, error)

// Keep is the reply of a method that keeps its request bytes past its
// return, as a store keeps the data it is sent: it answers with no body, and
// the frame those bytes arrived in is never reused.
var Keep WireBody = keep{}

type keep struct{}

func (keep) WireSize() int              { return 0 }
func (keep) AppendWire(w Writer) Writer { return w }
func (keep) ReadWire(*Reader)           {}

// Methods are the methods of an object by name.
type Methods map[string]Method

// Typed is the Method that decodes its request into a fresh *T and answers
// with what fn makes of it.
func Typed[T any, P ptrBody[T], R WireBody](fn func(P) (R, error)) Method {
	return func(body []byte) (WireBody, error) {
		in := P(new(T))
		if err := Decode(body, in); err != nil {
			return nil, err
		}
		return fn(in)
	}
}

// handle runs one of the methods and encodes its reply; kept reports a
// method that answered Keep.
func (m Methods) handle(method string, body []byte) (reply segments, kept bool, err error) {
	fn, ok := m[method]
	if !ok {
		return segments{}, false, fmt.Errorf("rpc: no such method %q: %w", method, ErrNoObject)
	}
	out, err := fn(body)
	if err != nil {
		return segments{}, false, err
	}
	if out == Keep {
		return segments{}, true, nil
	}
	return encode(out), false, nil
}

// Handler is the methods as a Handler, for Register: every reply is copied
// into one slice.
func (m Methods) Handler() Handler {
	return func(method string, body []byte) ([]byte, error) {
		reply, _, err := m.handle(method, body)
		return reply.flat(), err
	}
}

// Server hosts named objects and serves invocations.
type Server struct {
	mu      sync.RWMutex
	objects map[string]handler

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool // accepted connections; true while a handler runs
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{objects: make(map[string]handler), conns: make(map[net.Conn]bool)}
}

// handler is the one shape every registered object is dispatched in: the
// reply in the pieces it is to be sent in, and whether the object keeps the
// request's bytes.
type handler func(method string, body []byte) (reply segments, kept bool, err error)

// Register exposes an object under the given name. Re-registering replaces
// the previous handler.
func (s *Server) Register(object string, h Handler) {
	s.register(object, func(method string, body []byte) (segments, bool, error) {
		out, err := h(method, body)
		return segments{head: out}, true, err
	})
}

// RegisterMethods exposes an object's methods under the given name. Over tcp
// the large byte fields of a reply go out from the memory they are in
// (Writer.Bytes), which the method must leave alone from its return on.
func (s *Server) RegisterMethods(object string, m Methods) { s.register(object, m.handle) }

func (s *Server) register(object string, h handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[object] = h
}

// dispatch runs a call against the registered handler and returns the
// response status and payload (see replyOf). reuse reports that the call
// is done with body: the method succeeded and did not keep it.
func (s *Server) dispatch(object, method string, body []byte) (status byte, payload segments, reuse bool) {
	s.mu.RLock()
	h, ok := s.objects[object]
	s.mu.RUnlock()
	if !ok {
		// Quoted apart from fmt, object does not escape, so the caller's
		// string(object) conversion costs no allocation per call.
		status, payload = failure(fmt.Errorf("%w: %s", ErrNoObject, strconv.Quote(object)))
		return status, payload, true
	}
	out, kept, err := h(method, body)
	if err != nil {
		status, payload = failure(err)
		return status, payload, false
	}
	return statusOK, out, !kept
}

// Start begins serving on addr ("host:port", ":0" for ephemeral) in the
// background and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// serveConn answers the requests of one connection, one at a time, until the
// peer closes it, sends a malformed frame, or the server shuts down. A large
// request frame's buffer is recycled once its reply is out, if the method
// succeeded and did not keep it (framePool).
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.setBusy(conn, false) {
		return
	}
	defer s.forget(conn)
	br := newReader(conn)
	for {
		frame, buf, err := readRequest(br)
		if err != nil || !s.setBusy(conn, true) {
			return
		}
		status, payload, reuse, ok := s.serveFrame(frame)
		if !ok {
			return
		}
		if err := writeFrame(conn, responseHeader(status, payload.size()), payload); err != nil {
			return
		}
		if buf != nil && reuse {
			framePool.Put(buf)
		}
		if !s.setBusy(conn, false) {
			return
		}
	}
}

// serveFrame runs one request frame and returns the response to send; ok is
// false for a frame whose fields overrun it, which ends the connection. A
// frame of another version is answered as unavailable, naming both
// versions: its length prefix was sound, so the connection stays in step.
// reuse reports that nothing holds the frame once the response is sent.
func (s *Server) serveFrame(frame []byte) (status byte, payload segments, reuse, ok bool) {
	if v := frame[0]; v != frameVersion {
		status, payload = failure(fmt.Errorf("rpc: request frame is version %d, this side speaks version %d: %w", v, frameVersion, ErrUnavailable))
		return status, payload, true, true
	}
	object, method, body, ok := parseRequest(frame[1:])
	if !ok {
		return 0, segments{}, false, false
	}
	if len(body) == 0 {
		body = nil
	}
	status, payload, reuse = s.dispatch(string(object), string(method), body)
	if n := payload.size(); n > maxFrame-minResponse {
		status, payload = failure(fmt.Errorf("rpc: reply of %d bytes exceeds the %d byte frame limit", n, maxFrame))
		return status, payload, reuse, true
	}
	return status, payload, reuse, true
}

// setBusy records whether conn is inside a handler. It reports false once
// the server is closed: the connection then stops serving.
func (s *Server) setBusy(conn net.Conn, busy bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = busy
	return true
}

func (s *Server) forget(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close stops the listener and closes every idle connection; calls already
// inside a handler finish and are answered, then Close returns. It also
// removes any local registrations pointing at this server.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn, busy := range s.conns {
		if !busy {
			conn.Close()
		}
	}
	s.connMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	localMu.Lock()
	for name, srv := range localRegistry {
		if srv == s {
			delete(localRegistry, name)
		}
	}
	localMu.Unlock()
	s.wg.Wait()
	return nil
}

// localRegistry maps "local:" names to in-process servers.
var (
	localMu       sync.RWMutex
	localRegistry = make(map[string]*Server)
)

// ServeLocal registers the server under an in-process address and returns
// that address ("local:<name>").
func ServeLocal(name string, s *Server) (string, error) {
	localMu.Lock()
	defer localMu.Unlock()
	if _, dup := localRegistry[name]; dup {
		return "", fmt.Errorf("rpc: local address %q already in use", name)
	}
	localRegistry[name] = s
	return "local:" + name, nil
}

// ResetLocal clears all in-process registrations; tests use it for isolation.
func ResetLocal() {
	localMu.Lock()
	defer localMu.Unlock()
	localRegistry = make(map[string]*Server)
}

// DialTimeout bounds connection establishment for tcp addresses.
var DialTimeout = 5 * time.Second

// Invoke calls object.method at addr with an opaque body and returns the
// opaque reply. It chooses the transport from the address scheme.
func Invoke(addr, object, method string, body []byte) ([]byte, error) {
	return invoke(addr, object, method, segments{head: body})
}

// invoke is Invoke with the body in segments. Only tcp sends them as they
// are; the local transport flattens request and reply, and those copies are
// what keeps caller and handler from sharing memory.
func invoke(addr, object, method string, body segments) ([]byte, error) {
	if name, ok := strings.CutPrefix(addr, "local:"); ok {
		localMu.RLock()
		s := localRegistry[name]
		localMu.RUnlock()
		if s == nil {
			return nil, fmt.Errorf("rpc: no local server at %q: %w", addr, ErrUnavailable)
		}
		status, reply, _ := s.dispatch(object, method, body.flat())
		return replyOf(status, reply.flat())
	}
	return invokeTCP(strings.TrimPrefix(addr, "tcp:"), object, method, body)
}

// Call invokes object.method at addr with the request in and decodes the
// reply into out; nil stands for no body on either side. Over tcp the large
// byte fields of in are sent from where they are (Writer.Bytes): the caller
// must not modify them until Call returns.
func Call(addr, object, method string, in, out WireBody) error {
	reply, err := invoke(addr, object, method, encode(in))
	if err != nil {
		return err
	}
	if out != nil {
		if err := Decode(reply, out); err != nil {
			return fmt.Errorf("rpc: decoding reply from %s.%s: %w", object, method, err)
		}
	}
	return nil
}
