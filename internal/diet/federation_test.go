package diet

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/rpc"
)

// startLocalNaming brings up an in-process naming service for manual wiring
// (the federation tests need two MAs sharing one naming service, which
// Deploy — one MA per call, own naming each — cannot express).
func startLocalNaming(t *testing.T, name string) string {
	t.Helper()
	ns := rpc.NewServer()
	ns.Register(naming.ObjectName, naming.NewService().Handler())
	addr, err := rpc.ServeLocal(name, ns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return addr
}

// startMA wires and starts one Master Agent on the shared naming service.
func startMA(t *testing.T, namingAddr, name string, peers []string, hops int) *Agent {
	t.Helper()
	ma, err := NewAgent(AgentConfig{
		Name: name, Kind: MasterAgent, Naming: namingAddr, Local: true,
		Peers: peers, ForwardHops: hops, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ma.Close() })
	return ma
}

// startSubtree hangs an LA and one SeD serving the given service under a
// parent MA.
func startSubtree(t *testing.T, namingAddr, la, sed, parent, service string) {
	t.Helper()
	a, err := NewAgent(AgentConfig{
		Name: la, Kind: LocalAgent, Parent: parent, Naming: namingAddr, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	s, err := NewSeD(SeDConfig{
		Name: sed, Parent: la, Naming: namingAddr,
		Capacity: 1, PowerGFlops: 4, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := sleepService(service, 0, nil)
	if err := s.AddService(spec.Desc, spec.Solve); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
}

// TestFederationForwardResolvesForeignService is the acceptance-criteria
// integration test: a live 2-MA federation resolves (and solves) a service
// registered only under the peer MA, via peer forwarding.
func TestFederationForwardResolvesForeignService(t *testing.T) {
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	namingAddr := startLocalNaming(t, "naming-fed2ma")

	ma1 := startMA(t, namingAddr, "MA-fed1", []string{"MA-fed2"}, 0)
	ma2 := startMA(t, namingAddr, "MA-fed2", []string{"MA-fed1"}, 0)
	// Drive the federation heartbeat deterministically (Start also seeds it
	// in the background; SweepPeers is idempotent).
	ma1.SweepPeers()
	ma2.SweepPeers()

	// The service lives only under MA2's hierarchy.
	startSubtree(t, namingAddr, "LA-fed2", "SeD-fed2", "MA-fed2", "fedsvc")

	client, err := InitializeConfig(ClientConfig{Naming: namingAddr, MAName: "MA-fed1"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	p, _ := NewProfile("fedsvc", 0, 0, 1)
	p.SetScalarInt(0, 21, Volatile)
	info, err := client.Call(p)
	if err != nil {
		t.Fatalf("call through the federation failed: %v", err)
	}
	if info.Server != "SeD-fed2" {
		t.Errorf("served by %q, want the peer MA's SeD-fed2", info.Server)
	}
	if v, err := p.ScalarInt(1); err != nil || v != 42 {
		t.Errorf("result = %d, %v; want 42", v, err)
	}
	if fwd := ma1.metrics.peerForwards.With(ma1.cfg.Name).Value(); fwd < 1 {
		t.Errorf("origin MA forwarded %v requests, want >= 1", fwd)
	}
	if served := peerServed(ma2); served < 1 {
		t.Errorf("peer MA served %v forwards, want >= 1", served)
	}
	if peers := ma1.Peers(); len(peers) != 1 || peers[0].Name != "MA-fed2" {
		t.Errorf("MA-fed1 peers = %+v, want exactly MA-fed2", peers)
	}
}

// TestFederationBoundedHops proves the hop budget is enforced end to end: a
// service two forwards away is unreachable with a one-hop budget and
// reachable with two.
func TestFederationBoundedHops(t *testing.T) {
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	namingAddr := startLocalNaming(t, "naming-fedchain")

	// Chain: A → B → C; the service lives only under C. A's sticky peer list
	// holds only B, so reaching C needs B to relay (hop 2).
	maA := startMA(t, namingAddr, "MA-chainA", []string{"MA-chainB"}, 1)
	maB := startMA(t, namingAddr, "MA-chainB", []string{"MA-chainC"}, 0)
	maC := startMA(t, namingAddr, "MA-chainC", nil, 0)
	maA.SweepPeers()
	maB.SweepPeers()
	startSubtree(t, namingAddr, "LA-chainC", "SeD-chainC", "MA-chainC", "chainsvc")

	clientA, err := InitializeConfig(ClientConfig{Naming: namingAddr, MAName: "MA-chainA"})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("chainsvc", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	if _, err := clientA.Call(p); err == nil {
		t.Fatal("one-hop budget reached a service two forwards away")
	}
	if served := peerServed(maC); served != 0 {
		t.Errorf("MA-chainC served %v forwards despite the exhausted budget", served)
	}

	// A second origin with a two-hop budget reaches C through B.
	maA2 := startMA(t, namingAddr, "MA-chainA2", []string{"MA-chainB"}, 2)
	maA2.SweepPeers()
	clientA2, err := InitializeConfig(ClientConfig{Naming: namingAddr, MAName: "MA-chainA2"})
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewProfile("chainsvc", 0, 0, 1)
	p2.SetScalarInt(0, 5, Volatile)
	info, err := clientA2.Call(p2)
	if err != nil {
		t.Fatalf("two-hop budget failed to reach the service: %v", err)
	}
	if info.Server != "SeD-chainC" {
		t.Errorf("served by %q, want SeD-chainC", info.Server)
	}
	if peerServed(maC) < 1 {
		t.Error("MA-chainC never served the two-hop forward")
	}
}

// TestFederationForwardLoopGuard exercises the loop guard at the RPC
// surface: a request ID seen twice is dropped, as is a request that lists
// this MA in its visited set or arrives with no hop budget.
func TestFederationForwardLoopGuard(t *testing.T) {
	a, err := NewAgent(AgentConfig{Name: "MA-loop", Kind: MasterAgent, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	req := PeerForwardRequest{
		SchemaVersion: PeerSchemaVersion, Service: "x", RequestID: "req-1", Hops: 2,
	}
	reply, err := a.peerForward(&req)
	if err != nil || reply.Dropped {
		t.Fatalf("first delivery dropped (%v, %+v)", err, reply)
	}
	reply, err = a.peerForward(&req)
	if err != nil || !reply.Dropped {
		t.Fatalf("request ID seen twice was not dropped (%v, %+v)", err, reply)
	}

	visited := PeerForwardRequest{
		SchemaVersion: PeerSchemaVersion, Service: "x", RequestID: "req-2",
		Hops: 2, Visited: []string{"MA-other", "MA-loop"},
	}
	if reply, _ = a.peerForward(&visited); !reply.Dropped {
		t.Error("request listing this MA as visited was not dropped")
	}

	spent := PeerForwardRequest{SchemaVersion: PeerSchemaVersion, Service: "x", RequestID: "req-3"}
	if reply, _ = a.peerForward(&spent); !reply.Dropped {
		t.Error("request with no hop budget was not dropped")
	}

	if dropped := a.metrics.peerForwardDrops.With(a.cfg.Name).Value(); dropped != 3 {
		t.Errorf("loop guard dropped %v, want 3", dropped)
	}

	wrong := req
	wrong.SchemaVersion = PeerSchemaVersion + 1
	wrong.RequestID = "req-4"
	if _, err := a.peerForward(&wrong); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema version accepted (err=%v)", err)
	}
}

// captureSink records published events for assertions.
type captureSink struct {
	mu     sync.Mutex
	events []string // "kind detail"
}

func (c *captureSink) Publish(ev logsvc.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev.Kind+" "+ev.Detail)
}

func (c *captureSink) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if strings.HasPrefix(e, kind+" ") {
			n++
		}
	}
	return n
}

// TestFederationPeerRegisterDedup is the PR-7 childRegister guard applied
// to peers: re-announcements on every heartbeat must not spam the span bus;
// only a new peer or a moved address is an event.
func TestFederationPeerRegisterDedup(t *testing.T) {
	sink := &captureSink{}
	a, err := NewAgent(AgentConfig{Name: "MA-dedup", Kind: MasterAgent, Events: sink})
	if err != nil {
		t.Fatal(err)
	}
	peer := PeerInfo{Name: "MA-peer", Addr: "local:1"}
	for i := 0; i < 5; i++ { // five heartbeats, one event
		if err := a.peerRegister(peer); err != nil {
			t.Fatal(err)
		}
	}
	if n := sink.count("peer_register"); n != 1 {
		t.Errorf("5 identical announcements published %d events, want 1", n)
	}
	peer.Addr = "local:2" // the peer moved: that is news
	if err := a.peerRegister(peer); err != nil {
		t.Fatal(err)
	}
	if n := sink.count("peer_register"); n != 2 {
		t.Errorf("address change published %d events total, want 2", n)
	}

	if err := a.peerRegister(PeerInfo{Name: "MA-dedup", Addr: "local:3"}); err == nil {
		t.Error("self-peering accepted")
	}
	la, err := NewAgent(AgentConfig{Name: "LA-dedup", Kind: LocalAgent, Parent: "MA-dedup"})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.peerRegister(peer); err == nil {
		t.Error("a local agent accepted a peer registration")
	}
	if _, err := NewAgent(AgentConfig{
		Name: "LA-peered", Kind: LocalAgent, Parent: "MA-dedup", Peers: []string{"MA-x"},
	}); err == nil {
		t.Error("NewAgent accepted Peers on a local agent")
	}
}
