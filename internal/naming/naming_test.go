package naming

import (
	"testing"

	"repro/internal/rpc"
)

func TestServiceBasics(t *testing.T) {
	s := NewService()
	if err := s.Register(Entry{Name: "MA1", Addr: "a:1", Kind: "MA"}); err != nil {
		t.Fatal(err)
	}
	e, err := s.Resolve("MA1")
	if err != nil || e.Addr != "a:1" {
		t.Fatalf("Resolve = %+v, %v", e, err)
	}
	if _, err := s.Resolve("ghost"); err == nil {
		t.Error("missing name should fail")
	}
}

func TestRegisterConflicts(t *testing.T) {
	s := NewService()
	if err := s.Register(Entry{Name: "X", Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	// Same name, same address: fine (re-registration after restart).
	if err := s.Register(Entry{Name: "X", Addr: "a:1"}); err != nil {
		t.Errorf("idempotent rebind rejected: %v", err)
	}
	// Same name, different address: identity theft, rejected.
	if err := s.Register(Entry{Name: "X", Addr: "b:2"}); err == nil {
		t.Error("conflicting rebind should fail")
	}
	if err := s.Register(Entry{Name: "", Addr: "a:1"}); err == nil {
		t.Error("empty name should fail")
	}
	if err := s.Register(Entry{Name: "Y", Addr: ""}); err == nil {
		t.Error("empty addr should fail")
	}
}

func TestRemoteClient(t *testing.T) {
	defer rpc.ResetLocal()
	svc := NewService()
	server := rpc.NewServer()
	server.Register(ObjectName, svc.Handler())
	addr, err := rpc.ServeLocal("naming-test", server)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Addr: addr}
	if err := c.Register(Entry{Name: "SeD-a", Addr: "x:1", Kind: "SeD"}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Resolve("SeD-a")
	if err != nil || e.Addr != "x:1" {
		t.Fatalf("Resolve = %+v, %v", e, err)
	}
	if _, err := c.Resolve("SeD-b"); err == nil {
		t.Error("resolving an unbound name should fail through rpc")
	}
	// Conflicting remote rebind surfaces the server error.
	c.Register(Entry{Name: "Z", Addr: "1"})
	if err := c.Register(Entry{Name: "Z", Addr: "2"}); err == nil {
		t.Error("conflicting rebind should fail through rpc")
	}
}

func TestRemoteClientOverTCP(t *testing.T) {
	svc := NewService()
	server := rpc.NewServer()
	server.Register(ObjectName, svc.Handler())
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	c := &Client{Addr: addr}
	if err := c.Register(Entry{Name: "MA1", Addr: "tcp:somewhere:1", Kind: "MA"}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Resolve("MA1")
	if err != nil || e.Kind != "MA" {
		t.Fatalf("Resolve over TCP = %+v, %v", e, err)
	}
}
