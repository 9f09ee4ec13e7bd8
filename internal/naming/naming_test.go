package naming

import (
	"fmt"
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
	s.Unregister("MA1")
	if _, err := s.Resolve("MA1"); err == nil {
		t.Error("unregistered name should fail")
	}
	s.Unregister("MA1") // idempotent
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

func TestListSortedAndFiltered(t *testing.T) {
	s := NewService()
	for i := 3; i >= 1; i-- {
		s.Register(Entry{Name: fmt.Sprintf("SeD%d", i), Addr: fmt.Sprintf("a:%d", i), Kind: "SeD"})
	}
	s.Register(Entry{Name: "MA1", Addr: "m:1", Kind: "MA"})
	got := s.List("SeD")
	if len(got) != 3 {
		t.Fatalf("%d entries", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Error("list not sorted")
		}
	}
	if all := s.List(""); len(all) != 4 {
		t.Errorf("List(\"\") = %d entries", len(all))
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
	list, err := c.List("SeD")
	if err != nil || len(list) != 1 {
		t.Fatalf("List = %v, %v", list, err)
	}
	if err := c.Unregister("SeD-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve("SeD-a"); err == nil {
		t.Error("resolve after unregister should fail")
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

// ResolveAll is Agent.Submit's one naming exchange: the bound names come back
// in the order asked, unbound ones are left out ("server vanished between
// estimate and resolve"), and nothing in gives nothing out — over the wire too.
func TestTransportResolveAll(t *testing.T) {
	svc := NewService()
	for _, n := range []string{"a", "b", "c"} {
		svc.Register(Entry{Name: n, Addr: "addr-" + n, Kind: "SeD"})
	}
	server := rpc.NewServer()
	server.Register(ObjectName, svc.Handler())
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	c := &Client{Addr: addr}

	for _, tc := range []struct {
		names []string
		want  []string
	}{
		{[]string{"c", "ghost", "a", "b"}, []string{"c", "a", "b"}},
		{[]string{"b", "b"}, []string{"b", "b"}},
		{[]string{"ghost"}, nil},
		{nil, nil},
	} {
		remote, err := c.ResolveAll(tc.names)
		if err != nil {
			t.Fatalf("ResolveAll(%v): %v", tc.names, err)
		}
		for _, got := range [][]Entry{svc.ResolveAll(tc.names), remote} {
			if len(got) != len(tc.want) {
				t.Fatalf("ResolveAll(%v) = %+v, want names %v", tc.names, got, tc.want)
			}
			for i, e := range got {
				if e.Name != tc.want[i] || e.Addr != "addr-"+tc.want[i] || e.Kind != "SeD" {
					t.Errorf("ResolveAll(%v)[%d] = %+v, want %s", tc.names, i, e, tc.want[i])
				}
			}
		}
	}
}
