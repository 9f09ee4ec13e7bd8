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
	return rpc.Call(e.Addr, object, "Ping", nil, nil) == nil
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

// Handler exposes the service over rpc.
func (s *Service) Handler() rpc.Handler { return s.methods().Handler() }

// methods are the service's rpc methods: Register takes an entry and answers
// nothing, Resolve takes a name.
func (s *Service) methods() rpc.Methods {
	return rpc.Methods{
		"Register": rpc.Typed(func(e *Entry) (rpc.WireBody, error) { return nil, s.Register(*e) }),
		"Resolve": rpc.Typed(func(name *rpc.Text) (*Entry, error) {
			e, err := s.Resolve(string(*name))
			return &e, err
		}),
	}
}

// Client is a typed remote handle on a naming service.
type Client struct {
	Addr string
}

// Register binds a name remotely.
func (c *Client) Register(e Entry) error {
	return rpc.Call(c.Addr, ObjectName, "Register", &e, nil)
}

// Resolve looks a name up remotely.
func (c *Client) Resolve(name string) (Entry, error) {
	var e Entry
	key := rpc.Text(name)
	err := rpc.Call(c.Addr, ObjectName, "Resolve", &key, &e)
	return e, err
}

// An entry crosses the wire as its name, address and kind texts
// (rpc.WireBody).

func (e *Entry) WireSize() int                      { return rpc.TextSize(e.Name, e.Addr, e.Kind) }
func (e *Entry) AppendWire(w rpc.Writer) rpc.Writer { return w.Text(e.Name).Text(e.Addr).Text(e.Kind) }
func (e *Entry) ReadWire(r *rpc.Reader)             { e.Name, e.Addr, e.Kind = r.Text(), r.Text(), r.Text() }
