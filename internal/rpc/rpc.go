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
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// Handler dispatches one method call on one object and answers with the
// encoded reply.
type Handler func(method string, body []byte) ([]byte, error)

// TypedMethod handles one method of an object and answers with the reply
// itself, which the server encodes: over tcp its large byte fields then go
// out from the memory they are in (Writer.Bytes), which the method must leave
// alone from its return on.
type TypedMethod func(body []byte) (WireBody, error)

// ErrNoObject is returned when the target object is not registered. It
// survives both transports: errors.Is(err, ErrNoObject) holds at the caller.
var ErrNoObject = errors.New("rpc: no such object")

// ErrUnavailable is wrapped by every failure to get a response out of a tcp
// peer at all: the dial failed, or the connection broke before the first
// response byte. The handler may or may not have run.
var ErrUnavailable = errors.New("rpc: peer unavailable")

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
// reply in the pieces it is to be sent in.
type handler func(method string, body []byte) (segments, error)

// Register exposes an object under the given name. Re-registering replaces
// the previous handler. (Not RegisterTyped with no typed method: the lookup in
// the empty table is a tenth of an in-process call.)
func (s *Server) Register(object string, h Handler) {
	s.register(object, func(method string, body []byte) (segments, error) {
		out, err := h(method, body)
		return segments{head: out}, err
	})
}

// RegisterTyped is Register for an object some of whose methods are typed;
// every other method goes to rest.
func (s *Server) RegisterTyped(object string, typed map[string]TypedMethod, rest Handler) {
	s.register(object, func(method string, body []byte) (segments, error) {
		fn, ok := typed[method]
		if !ok {
			out, err := rest(method, body)
			return segments{head: out}, err
		}
		reply, err := fn(body)
		if err != nil {
			return segments{}, err
		}
		return encode(reply)
	})
}

func (s *Server) register(object string, h handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[object] = h
}

// Unregister removes an object.
func (s *Server) Unregister(object string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, object)
}

// dispatch runs a call against the registered handler and returns the
// response status and payload (see replyOf).
func (s *Server) dispatch(object, method string, body []byte) (byte, segments) {
	s.mu.RLock()
	h, ok := s.objects[object]
	s.mu.RUnlock()
	if !ok {
		return statusNoObject, segments{head: []byte(object)}
	}
	out, err := h(method, body)
	if err != nil {
		return statusError, segments{head: []byte(err.Error())}
	}
	return statusOK, out
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
// peer closes it, sends a malformed frame, or the server shuts down.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.setBusy(conn, false) {
		return
	}
	defer s.forget(conn)
	br := newReader(conn)
	for {
		frame, _, err := readFrame(br, minRequest)
		if err != nil || !s.setBusy(conn, true) {
			return
		}
		status, payload, ok := s.serveFrame(frame)
		if !ok {
			return
		}
		err = writeFrame(conn, responseHeader(status, payload.size()), payload)
		if err != nil || !s.setBusy(conn, false) {
			return
		}
	}
}

// serveFrame runs one request frame and returns the response to send; ok is
// false for a frame whose fields overrun it, which ends the connection. A
// frame of another version is answered with an error naming both versions:
// its length prefix was sound, so the connection stays in step.
func (s *Server) serveFrame(frame []byte) (status byte, payload segments, ok bool) {
	if v := frame[0]; v != frameVersion {
		return statusError, segments{head: []byte(fmt.Sprintf("rpc: request frame is version %d, this side speaks version %d", v, frameVersion))}, true
	}
	object, method, body, ok := parseRequest(frame[1:])
	if !ok {
		return 0, segments{}, false
	}
	if len(body) == 0 {
		body = nil
	}
	status, payload = s.dispatch(string(object), string(method), body)
	if n := payload.size(); n > maxFrame-minResponse {
		return statusError, segments{head: []byte(fmt.Sprintf("rpc: reply of %d bytes exceeds the %d byte frame limit", n, maxFrame))}, true
	}
	return status, payload, true
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
			return nil, fmt.Errorf("rpc: no local server at %q", addr)
		}
		status, reply := s.dispatch(object, method, body.flat())
		return replyOf(status, reply.flat())
	}
	return invokeTCP(strings.TrimPrefix(addr, "tcp:"), object, method, body)
}

// Call is the typed convenience wrapper: encodes in, invokes, decodes into
// out (pass nil for methods without a reply payload). Over tcp the large
// byte fields of a WireBody are sent from where they are (Writer.Bytes): the
// caller must not modify them until Call returns.
func Call(addr, object, method string, in, out any) error {
	var body segments
	var err error
	if in != nil {
		body, err = encode(in)
		if err != nil {
			return fmt.Errorf("rpc: encoding request for %s.%s: %w", object, method, err)
		}
	}
	reply, err := invoke(addr, object, method, body)
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

// HandlerFunc adapts a map of typed method handlers into a Handler. Methods
// not in the map return an error.
func HandlerFunc(methods map[string]func(body []byte) ([]byte, error)) Handler {
	return func(method string, body []byte) ([]byte, error) {
		fn, ok := methods[method]
		if !ok {
			return nil, fmt.Errorf("rpc: no such method %q", method)
		}
		return fn(body)
	}
}
