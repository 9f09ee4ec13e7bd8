// Package naming is the omniORB-style naming service of the deployment: a
// small registry mapping component names (master agent, local agents, SeDs)
// to transport addresses. A DIET client "can be connected to a MA by a
// specific name server" (paper §3.1) — this is that name server.
package naming

import (
	"fmt"
	"sync"

	"repro/internal/rpc"
)

// ObjectName is the rpc object under which the service is exposed.
const ObjectName = "naming"

// Entry is one name → address binding.
type Entry struct {
	Name string
	Addr string
	Kind string // "MA", "LA", "SeD", or free-form
}

// Service is the registry implementation.
type Service struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewService returns an empty naming service.
func NewService() *Service {
	return &Service{entries: make(map[string]Entry)}
}

// Register binds a name; rebinding an existing name is an error so that two
// components cannot silently claim the same identity — unless the current
// holder is dead. A restarted component comes back on a fresh address, so a
// conflicting registration probes the old holder (a Ping on its component
// object) and takes the binding over only when nothing answers there. Kinds
// the prober cannot address keep the strict no-rebind rule.
func (s *Service) Register(e Entry) error {
	if e.Name == "" || e.Addr == "" {
		return fmt.Errorf("naming: name and addr are required, got %+v", e)
	}
	s.mu.Lock()
	old, dup := s.entries[e.Name]
	if !dup || old.Addr == e.Addr {
		s.entries[e.Name] = e
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	// Probe outside the lock: liveness checks must not serialise the registry.
	if holderAlive(old) {
		return fmt.Errorf("naming: %q already bound to %s", e.Name, old.Addr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.entries[e.Name]; !ok || cur == old {
		// The stale holder is gone (or unchanged since the probe): take over.
		s.entries[e.Name] = e
		return nil
	}
	return fmt.Errorf("naming: %q re-bound concurrently", e.Name)
}

// holderAlive pings the component behind an entry. Only the kinds whose rpc
// object name is derivable ("SeD", "LA", "MA") can be probed; anything else
// is reported alive, preserving the strict rebind rule for free-form kinds.
func holderAlive(e Entry) bool {
	var object string
	switch e.Kind {
	case "SeD":
		object = "sed:" + e.Name
	case "LA", "MA":
		object = "agent:" + e.Name
	default:
		return true
	}
	var pong string
	return rpc.Call(e.Addr, object, "Ping", struct{}{}, &pong) == nil
}

// Unregister removes a binding (idempotent).
func (s *Service) Unregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, name)
}

// Resolve returns the binding for name.
func (s *Service) Resolve(name string) (Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("naming: %q not bound", name)
	}
	return e, nil
}

// ResolveAll returns the bindings of names in the order given, leaving out
// the names that are not bound: one exchange where a caller ranking N servers
// would otherwise make N.
func (s *Service) ResolveAll(names []string) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(names))
	for _, name := range names {
		if e, ok := s.entries[name]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Handler exposes the service over rpc.
func (s *Service) Handler() rpc.Handler {
	return rpc.HandlerFunc(map[string]func([]byte) ([]byte, error){
		"Register": func(body []byte) ([]byte, error) {
			var e Entry
			if err := rpc.Decode(body, &e); err != nil {
				return nil, err
			}
			if err := s.Register(e); err != nil {
				return nil, err
			}
			return rpc.Encode(true)
		},
		"Resolve": func(body []byte) ([]byte, error) {
			var name string
			if err := rpc.Decode(body, &name); err != nil {
				return nil, err
			}
			e, err := s.Resolve(name)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(e)
		},
		"ResolveAll": func(body []byte) ([]byte, error) {
			var req resolveAllRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			return rpc.Encode(&resolveAllReply{Entries: s.ResolveAll(req.Names)})
		},
	})
}

// Client is a typed remote handle on a naming service.
type Client struct {
	Addr string
}

// Register binds a name remotely.
func (c *Client) Register(e Entry) error {
	var ok bool
	return rpc.Call(c.Addr, ObjectName, "Register", e, &ok)
}

// Resolve looks a name up remotely.
func (c *Client) Resolve(name string) (Entry, error) {
	var e Entry
	err := rpc.Call(c.Addr, ObjectName, "Resolve", name, &e)
	return e, err
}

// ResolveAll looks names up remotely in one exchange: the bound ones, in the
// order given.
func (c *Client) ResolveAll(names []string) ([]Entry, error) {
	var reply resolveAllReply
	err := rpc.Call(c.Addr, ObjectName, "ResolveAll", &resolveAllRequest{Names: names}, &reply)
	return reply.Entries, err
}

// resolveAllRequest and resolveAllReply are the bodies of the ResolveAll
// exchange, the one naming call on the path of every GridRPC call; they have
// a hand-written layout (rpc.WireBody) where the registry's other, cold
// methods use gob: a list of name texts out, a list of entries — name, addr
// and kind texts — back.
type resolveAllRequest struct{ Names []string }

type resolveAllReply struct{ Entries []Entry }

func (q *resolveAllRequest) WireSize() int                      { return rpc.TextsSize(q.Names) }
func (q *resolveAllRequest) AppendWire(w rpc.Writer) rpc.Writer { return w.Texts(q.Names) }
func (q *resolveAllRequest) ReadWire(r *rpc.Reader)             { q.Names = r.Texts() }

func (p *resolveAllReply) WireSize() int {
	n := rpc.LenSize
	for _, e := range p.Entries {
		n += 3*rpc.LenSize + len(e.Name) + len(e.Addr) + len(e.Kind)
	}
	return n
}

func (p *resolveAllReply) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Count(len(p.Entries))
	for _, e := range p.Entries {
		w = w.Text(e.Name).Text(e.Addr).Text(e.Kind)
	}
	return w
}

func (p *resolveAllReply) ReadWire(r *rpc.Reader) {
	p.Entries = rpc.ReadList(r, 3*rpc.LenSize, func(e *Entry, r *rpc.Reader) {
		e.Name, e.Addr, e.Kind = r.Text(), r.Text(), r.Text()
	})
}
