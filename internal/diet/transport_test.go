package diet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/logsvc"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// The tests of this file run the hierarchy over loopback TCP (the rest of the
// package uses the local: transport), so they see pooled connections.

// TestTransportSubmitResolvesInOneExchange pins the finding phase's exchange
// count: whatever the number of ranked servers, Agent.Submit asks the naming
// service once, and a server that lost its binding between estimate and
// resolve is skipped, not fatal.
func TestTransportSubmitResolvesInOneExchange(t *testing.T) {
	svc := naming.NewService()
	var mu sync.Mutex
	calls := map[string]int{}
	inner := svc.Handler()
	ns := rpc.NewServer()
	ns.Register(naming.ObjectName, func(method string, body []byte) ([]byte, error) {
		mu.Lock()
		calls[method]++
		mu.Unlock()
		return inner(method, body)
	})
	namingAddr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	ma, err := NewAgent(AgentConfig{Name: "MA-one", Kind: MasterAgent, Naming: namingAddr, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	names := []string{"SeD-one-a", "SeD-one-b", "SeD-one-c", "SeD-one-d"}
	for _, name := range names {
		sed, err := NewSeD(SeDConfig{Name: name, Parent: "MA-one", Naming: namingAddr, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		spec := sleepService("work", 0, nil)
		if err := sed.AddService(spec.Desc, spec.Solve); err != nil {
			t.Fatal(err)
		}
		if err := sed.Start(); err != nil {
			t.Fatal(err)
		}
		defer sed.Close()
	}

	total := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range calls {
			n += c
		}
		return n
	}
	const submits = 5
	before := total()
	for i := 0; i < submits; i++ {
		reply, err := ma.Submit(SubmitRequest{Service: "work", Seq: i})
		if err != nil {
			t.Fatal(err)
		}
		if len(reply.Servers) != len(names) {
			t.Fatalf("submit %d ranked %d servers, want %d", i, len(reply.Servers), len(names))
		}
		for _, srv := range reply.Servers {
			if srv.Addr == "" {
				t.Fatalf("submit %d: server %s came back without an address", i, srv.Name)
			}
		}
	}
	if got := total() - before; got != submits {
		t.Errorf("%d submits made %d naming exchanges, want one each (by method: %v)", submits, got, calls)
	}
	mu.Lock()
	resolveAll := calls["ResolveAll"]
	mu.Unlock()
	if resolveAll != submits {
		t.Errorf("%d ResolveAll exchanges for %d submits", resolveAll, submits)
	}

	// A server that vanishes from naming after estimating is left out.
	svc.Unregister("SeD-one-b")
	reply, err := ma.Submit(SubmitRequest{Service: "work", Seq: submits})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Servers) != len(names)-1 || len(reply.Estimates) != len(names) {
		t.Fatalf("after unbinding one server: %d servers, %d estimates, want %d and %d",
			len(reply.Servers), len(reply.Estimates), len(names)-1, len(names))
	}
	for _, srv := range reply.Servers {
		if srv.Name == "SeD-one-b" {
			t.Error("unbound server still offered to the client")
		}
	}
}

// TestChaosSeDKillWithWarmConnectionsTCP kills a SeD in the middle of a
// campaign, while this process holds warm pooled connections to it from the
// clients and from its LA. A stale connection must read as a failed server —
// one retry on a fresh dial, refused — not as a hang or a lost solve: the
// campaign goes on with no failure, and a call holding a ranked list from
// before the kill, led by the dead SeD, is requeued on the next server.
func TestChaosSeDKillWithWarmConnectionsTCP(t *testing.T) {
	bus := logsvc.New(100000)
	d, err := Deploy(DeploymentSpec{
		MAName: "MA-chaos-tcp", LAs: []string{"LA1", "LA2"},
		SeDs: []SeDSpec{
			{Name: "SeD-tcp-a", Parent: "LA1", Capacity: 2, PowerGFlops: 60,
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
			{Name: "SeD-tcp-b", Parent: "LA2", Capacity: 2, PowerGFlops: 40,
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
			{Name: "SeD-tcp-c", Parent: "LA2", Capacity: 2, PowerGFlops: 20,
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
		},
		Policy: scheduler.NewRoundRobin(), Events: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var cc chaosClient
	for i := 0; i < 4; i++ {
		cc.run(t, d, stop, &wg)
	}
	progress := func(n int64) {
		t.Helper()
		target := cc.ok.Load() + n
		deadline := time.Now().Add(10 * time.Second)
		for cc.ok.Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("campaign stalled at %d solves (%d failed)", cc.ok.Load(), cc.fail.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	progress(30) // round-robin has warmed connections to every SeD

	// A ranked list from before the kill, to be used after it.
	victim := d.SeDs[0]
	late, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	ranked, _, err := late.FindServers("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	lead := -1
	for i, srv := range ranked.Servers {
		if srv.Name == victim.Name() {
			lead = i
		}
	}
	if lead < 0 {
		t.Fatalf("victim %s not in the ranked list %+v", victim.Name(), ranked.Servers)
	}

	victim.Close()
	progress(30) // the campaign carries on over the survivors

	p, _ := NewProfile("work", 0, 0, 1)
	p.SetScalarInt(0, 21, Volatile)
	info, err := late.Call(p, WithServers(ranked, lead))
	if err != nil {
		t.Fatalf("call led by the dead SeD was lost: %v", err)
	}
	if v, _ := p.ScalarInt(1); v != 42 || info.Server == victim.Name() {
		t.Fatalf("call led by the dead SeD: result %d on %s", v, info.Server)
	}
	close(stop)
	wg.Wait()

	if cc.fail.Load() != 0 {
		t.Errorf("%d solves lost across the kill (%d succeeded)", cc.fail.Load(), cc.ok.Load())
	}
	requeued := false
	for _, ev := range logsvc.SpansByRequest(bus.History())[info.RequestID] {
		if ev.Kind == logsvc.KindRequeue {
			requeued = true
		}
	}
	if !requeued {
		t.Errorf("no requeue span in the trace of %s", info.RequestID)
	}
}
