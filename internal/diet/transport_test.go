package diet

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/platform"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// The tests of this file run the hierarchy over loopback TCP (the rest of the
// package uses the local: transport), so they see pooled connections.

// TestTransportRankedServersCarryTheirAddress pins where a ranked server is
// reached: at the address its SeD put in its estimate, the one its LA
// collected it from. The MA asks the naming service nothing (the exchange
// budget below counts that), so a SeD that the MA's naming never bound (it
// registered with another naming service) is offered and serves, and a SeD
// that died after estimating is dialled, refused as rpc.ErrUnavailable and
// failed over. Until estimates carried the address, the MA resolved the
// ranked names in naming and left an unbound server out.
func TestTransportRankedServersCarryTheirAddress(t *testing.T) {
	startNaming := func(svc *naming.Service) string {
		ns := rpc.NewServer()
		ns.Register(naming.ObjectName, svc.Handler())
		addr, err := ns.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		return addr
	}
	namingAddr := startNaming(naming.NewService())
	other := naming.NewService()
	otherAddr := startNaming(other)

	ma, err := NewAgent(AgentConfig{Name: "MA-one", Kind: MasterAgent, Naming: namingAddr, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	if err := other.Register(naming.Entry{Name: "MA-one", Addr: ma.Addr(), Kind: "MA"}); err != nil {
		t.Fatal(err)
	}
	const unbound = "SeD-one-b"
	seds := map[string]*SeD{}
	for _, name := range []string{"SeD-one-a", unbound, "SeD-one-c", "SeD-one-d"} {
		at := namingAddr
		if name == unbound {
			at = otherAddr
		}
		sed, err := NewSeD(SeDConfig{Name: name, Parent: "MA-one", Naming: at, ListenAddr: "127.0.0.1:0"})
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
		seds[name] = sed
	}
	client, err := InitializeConfig(ClientConfig{Naming: namingAddr, MAName: "MA-one"})
	if err != nil {
		t.Fatal(err)
	}
	call := func(opts ...CallOption) (*CallInfo, error) {
		p, _ := NewProfile("work", 0, 0, 1)
		p.SetScalarInt(0, 21, Volatile)
		return client.Call(p, opts...)
	}

	served := map[string]bool{}
	for i := 0; i < len(seds); i++ { // round-robin: each SeD ranked first once
		info, err := call()
		if err != nil {
			t.Fatal(err)
		}
		served[info.Server] = true
	}
	if !served[unbound] || len(served) != len(seds) {
		t.Errorf("%d calls were served by %v, want every SeD, %s among them", len(seds), served, unbound)
	}

	ranked, _, err := client.FindServers("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	lead := -1
	for i, est := range ranked.Estimates {
		if sed := seds[est.ServerID]; sed == nil || est.Addr != sed.Addr() {
			t.Errorf("ranked %s at %q, want the address it serves on", est.ServerID, est.Addr)
		}
		if est.ServerID == "SeD-one-c" {
			lead = i
		}
	}
	if len(ranked.Estimates) != len(seds) || lead < 0 {
		t.Fatalf("ranked %+v, want all %d SeDs", ranked.Estimates, len(seds))
	}
	dead := seds["SeD-one-c"]
	dead.Close()
	if _, err := call(WithServers(rankedList(dead.Name(), dead.Addr()), 0)); !errors.Is(err, rpc.ErrUnavailable) || !rpc.Retryable(err) {
		t.Errorf("a call bound to a dead SeD = %v, want a retryable rpc.ErrUnavailable", err)
	}
	info, err := call(WithServers(ranked, lead))
	if err != nil || info.Server == dead.Name() {
		t.Errorf("a call led by a dead SeD = %+v, %v, want it failed over", info, err)
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
	for i, srv := range ranked.Estimates {
		if srv.ServerID == victim.Name() {
			lead = i
		}
	}
	if lead < 0 {
		t.Fatalf("victim %s not in the ranked list %+v", victim.Name(), ranked.Estimates)
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

// paperTCPSpec is the paper's platform over loopback TCP: one MA, one LA per
// cluster, the eleven SeDs of platform.PaperDeployment serving a no-op
// "double", ranked round-robin.
func paperTCPSpec(reg *metrics.Registry) DeploymentSpec {
	spec := DeploymentSpec{MAName: "MA1", Policy: scheduler.NewRoundRobin(), Metrics: reg}
	svc := sleepService("double", 0, nil)
	for _, s := range platform.PaperDeployment().SeDs {
		la := "LA-" + s.Cluster
		if !slices.Contains(spec.LAs, la) {
			spec.LAs = append(spec.LAs, la)
		}
		spec.SeDs = append(spec.SeDs, SeDSpec{
			Name: s.Name, Parent: la, Cluster: s.Cluster,
			Capacity: 1, PowerGFlops: s.PowerGFlops(), Services: []ServiceSpec{svc},
		})
	}
	return spec
}

// exchanges counts the rpc exchanges a deployment serves. countExchanges
// registers every object of every component again with each method wrapped,
// so an exchange is one request a server answered, whoever made it.
type exchanges struct {
	n    atomic.Int64
	mu   sync.Mutex
	gate chan struct{} // when set, an Estimate waits until it is closed
}

func countExchanges(d *Deployment) *exchanges {
	x := &exchanges{}
	wrap := func(m rpc.Methods) rpc.Methods {
		out := make(rpc.Methods, len(m))
		for name, fn := range m {
			out[name] = func(body []byte) (rpc.WireBody, error) {
				x.n.Add(1)
				if name == "Estimate" {
					x.mu.Lock()
					gate := x.gate
					x.mu.Unlock()
					if gate != nil {
						<-gate
					}
				}
				return fn(body)
			}
		}
		return out
	}
	for _, a := range append([]*Agent{d.MA}, d.LAs...) {
		a.server.RegisterMethods(a.objectName(), wrap(a.methods()))
	}
	for _, s := range d.SeDs {
		s.server.RegisterMethods(s.objectName(), wrap(s.methods()))
	}
	ns := d.Naming.Handler()
	d.servers[0].Register(naming.ObjectName, func(method string, body []byte) ([]byte, error) {
		x.n.Add(1)
		return ns(method, body)
	})
	return x
}

// TestTransportCallExchangeBudget counts the exchanges of a call on the
// paper's platform (1 MA, 6 LA, 11 SeD): the client's Submit, the MA's six
// Collects, the LAs' eleven Estimates and the client's Solve, 19 in all. A
// burst of k overlapping calls walks the hierarchy once, and each call that
// rides the walk adds only its Submit and its Solve: 19 + 2(k−1). Measured
// at the commit before the estimates carried their SeD's address: 20 and
// 20 + 3(k−1), the MA asking naming for the ranked servers' addresses.
func TestTransportCallExchangeBudget(t *testing.T) {
	const solo, k = 19, 4
	d := newTestDeployment(t, paperTCPSpec(metrics.NewRegistry()))
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	call := func() *AsyncCall {
		p, err := NewProfile("double", 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.SetScalarInt(0, 21, Volatile)
		return client.CallAsync(p)
	}
	if _, err := call().Wait(); err != nil { // dial outside the count
		t.Fatal(err)
	}
	x := countExchanges(d)
	for i := 0; i < 3; i++ {
		before := x.n.Load()
		if _, err := call().Wait(); err != nil {
			t.Fatal(err)
		}
		if got := x.n.Load() - before; got != solo {
			t.Errorf("solo call %d made %d exchanges, want %d", i, got, solo)
		}
	}

	// The burst: every Estimate waits until k−1 calls have joined the walk.
	gate := make(chan struct{})
	x.mu.Lock()
	x.gate = gate
	x.mu.Unlock()
	joined := d.MA.metrics.collectJoined.With(d.MA.Name())
	base, before := joined.Value(), x.n.Load()
	calls := make([]*AsyncCall, k)
	for i := range calls {
		calls[i] = call()
	}
	deadline := time.Now().Add(10 * time.Second)
	for joined.Value()-base < k-1 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("%v of %d calls joined the walk", joined.Value()-base, k-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := WaitAll(calls); err != nil {
		t.Fatal(err)
	}
	if got, want := x.n.Load()-before, int64(solo+2*(k-1)); got != want {
		t.Errorf("a burst of %d calls made %d exchanges, want %d", k, got, want)
	}
}
