package diet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/rpc"
)

// The tests of this file pin how an agent coalesces its collects: a collect
// that arrives while an identical one is in flight rides that walk of the
// hierarchy instead of walking it again. They run over loopback TCP, under
// SeDs whose estimates wait at a gate, so that a walk stays in flight for as
// long as a test needs it to.

// gatedPlatform is an MA over TCP with one LA and fake SeDs below it. Each
// SeD answers Estimate for every service, counts the calls it got, reports
// each on arrived and holds its answer until gate is closed.
type gatedPlatform struct {
	ma      *Agent
	bus     *logsvc.Bus
	arrived chan string
	gate    chan struct{}

	mu        sync.Mutex
	estimates map[string]int
}

func newGatedPlatform(t *testing.T, tag string, seds int) *gatedPlatform {
	t.Helper()
	svc := naming.NewService()
	ns := rpc.NewServer()
	ns.Register(naming.ObjectName, svc.Handler())
	namingAddr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	g := &gatedPlatform{
		bus:       logsvc.New(1024),
		arrived:   make(chan string, 1024),
		gate:      make(chan struct{}),
		estimates: map[string]int{},
	}
	ma, err := NewAgent(AgentConfig{
		Name: "MA-" + tag, Kind: MasterAgent, Naming: namingAddr, ListenAddr: "127.0.0.1:0",
		Events: g.bus, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ma.Close() })
	la, err := NewAgent(AgentConfig{
		Name: "LA-" + tag, Kind: LocalAgent, Parent: ma.Name(), Naming: namingAddr, ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { la.Close() })

	srv := rpc.NewServer()
	var names []string
	for i := 0; i < seds; i++ {
		name := fmt.Sprintf("SeD-%s-%d", tag, i)
		names = append(names, name)
		srv.RegisterMethods("sed:"+name, rpc.Methods{
			"Estimate": rpc.Typed(func(q *EstimateQuery) (*EstimateReply, error) {
				g.mu.Lock()
				g.estimates[name]++
				g.mu.Unlock()
				g.arrived <- name
				<-g.gate
				reply := &EstimateReply{OK: true}
				reply.Est.ServerID, reply.Est.Service, reply.Est.PowerGFlops = name, q.Service, 10
				return reply, nil
			}),
		})
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Registered last, the gate is opened before the SeDs stop, so that no
	// handler is left waiting at it.
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(g.open)
	nc := &naming.Client{Addr: namingAddr}
	for _, name := range names {
		if err := nc.Register(naming.Entry{Name: name, Addr: addr, Kind: "SeD"}); err != nil {
			t.Fatal(err)
		}
		if err := la.childRegister(ChildInfo{Name: name, Addr: addr, Kind: "SeD"}); err != nil {
			t.Fatal(err)
		}
	}
	g.ma = ma
	return g
}

// open lets every estimate held at the gate, and every later one, answer.
func (g *gatedPlatform) open() {
	select {
	case <-g.gate:
	default:
		close(g.gate)
	}
}

// estimated is how many Estimate calls each SeD got.
func (g *gatedPlatform) estimated() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int, len(g.estimates))
	for k, v := range g.estimates {
		out[k] = v
	}
	return out
}

func (g *gatedPlatform) joined() float64 {
	return g.ma.metrics.collectJoined.With(g.ma.Name()).Value()
}

// awaitArrivals waits until n estimates have reached the gate.
func (g *gatedPlatform) awaitArrivals(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-g.arrived:
		case <-timeout:
			t.Fatalf("%d of %d estimates reached the SeDs (by SeD: %v)", i, n, g.estimated())
		}
	}
}

// awaitJoined waits until n collects have joined a walk at the MA. A joined
// collect counts itself before it waits, so this returns while the walk it
// joined is still held at the gate.
func (g *gatedPlatform) awaitJoined(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.joined() < float64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%v collects joined a walk, want %d", g.joined(), n)
		}
		runtime.Gosched()
	}
}

type submitResult struct {
	reply *SubmitReply
	err   error
}

// submitAll starts one Submit per request and returns where their results
// arrive, in request order.
func (g *gatedPlatform) submitAll(reqs []SubmitRequest) []chan submitResult {
	out := make([]chan submitResult, len(reqs))
	for i, req := range reqs {
		out[i] = make(chan submitResult, 1)
		go func(req SubmitRequest, done chan<- submitResult) {
			reply, err := g.ma.Submit(req)
			done <- submitResult{reply, err}
		}(req, out[i])
	}
	return out
}

// TestTransportConcurrentSubmitsShareOneWalk sends k Submits of one service
// while the first walk is held at the SeDs: the walk runs once, so every SeD
// estimates once, not k times. Each request is still ranked on its own (the
// round-robin policy hands each a different first server), each reply owns
// its estimates, and the schedule span of a request that rode another's walk
// names that request.
func TestTransportConcurrentSubmitsShareOneWalk(t *testing.T) {
	const seds, k = 3, 3
	g := newGatedPlatform(t, "share", seds)
	reqs := make([]SubmitRequest, k)
	for i := range reqs {
		reqs[i] = SubmitRequest{Service: "work", Seq: i, RequestID: fmt.Sprintf("req-share-%d", i)}
	}
	results := g.submitAll(reqs)
	g.awaitArrivals(t, seds)
	g.awaitJoined(t, k-1)
	g.open()

	replies := make([]*SubmitReply, k)
	first := map[string]bool{}
	for i, done := range results {
		r := <-done
		if r.err != nil {
			t.Fatalf("submit %d: %v", i, r.err)
		}
		if len(r.reply.Estimates) != seds {
			t.Fatalf("submit %d: %d servers ranked, want %d", i, len(r.reply.Estimates), seds)
		}
		replies[i] = r.reply
		first[r.reply.Estimates[0].ServerID] = true
	}
	for name, n := range g.estimated() {
		if n != 1 {
			t.Errorf("SeD %s estimated %d times for %d concurrent submits, want once", name, n, k)
		}
	}
	if got := g.joined(); got != k-1 {
		t.Errorf("%v collects joined, want %d", got, k-1)
	}
	if len(first) != k {
		t.Errorf("the %d submits were offered %d distinct first servers, want %d: each is ranked on its own", k, len(first), k)
	}
	replies[0].Estimates[0].ServerID = "scribbled"
	for i, r := range replies[1:] {
		if r.Estimates[0].ServerID == "scribbled" {
			t.Fatalf("replies 0 and %d share their estimates", i+1)
		}
	}

	leader, riders := "", 0
	for _, ev := range g.bus.History() {
		if ev.Kind != logsvc.KindSchedule {
			continue
		}
		if _, rode, ok := strings.Cut(ev.Detail, ", rode the walk of "); ok {
			riders++
			if leader != "" && rode != leader {
				t.Errorf("schedule spans name two walks: %s and %s", leader, rode)
			}
			leader = rode
		}
	}
	if riders != k-1 {
		t.Errorf("%d schedule spans say they rode a walk, want %d", riders, k-1)
	}
	if !strings.HasPrefix(leader, "req-share-") {
		t.Errorf("the riders name walk %q, want one of the burst's requests", leader)
	}
}

// TestTransportSubmitAfterWalkWalksAgain: a walk is shared only while it is
// in flight. A Submit that comes after one has ended starts its own, so
// every SeD estimates again and nothing is served from an earlier answer.
func TestTransportSubmitAfterWalkWalksAgain(t *testing.T) {
	const seds = 2
	g := newGatedPlatform(t, "again", seds)
	g.open()
	for i := 1; i <= 3; i++ {
		if _, err := g.ma.Submit(SubmitRequest{Service: "work", Seq: i}); err != nil {
			t.Fatal(err)
		}
		for name, n := range g.estimated() {
			if n != i {
				t.Fatalf("after %d sequential submits SeD %s estimated %d times", i, name, n)
			}
		}
	}
	if got := g.joined(); got != 0 {
		t.Errorf("%v sequential collects joined a walk, want 0", got)
	}
}

// TestTransportDifferentDataIDsNeverShareAWalk: a data-aware request names
// its inputs, and each SeD prices their transfer into its estimate, so
// requests with other inputs, or none, walk on their own even when they
// overlap. Every walk must reach every SeD before any is let go.
func TestTransportDifferentDataIDsNeverShareAWalk(t *testing.T) {
	const seds = 2
	g := newGatedPlatform(t, "data", seds)
	reqs := []SubmitRequest{
		{Service: "work", Seq: 0},
		{Service: "work", Seq: 1, DataIDs: []string{"in-a"}},
		{Service: "work", Seq: 2, DataIDs: []string{"in-b"}},
		{Service: "work", Seq: 3, DataIDs: []string{"in-a", "in-b"}},
		{Service: "work", Seq: 4, DataIDs: []string{"in-a\"", "in-b"}},
		{Service: "work", Seq: 5, DataIDs: []string{"in-a\" \"in-b"}},
	}
	results := g.submitAll(reqs)
	g.awaitArrivals(t, len(reqs)*seds)
	g.open()
	for i, done := range results {
		if r := <-done; r.err != nil {
			t.Fatalf("submit %d: %v", i, r.err)
		}
	}
	for name, n := range g.estimated() {
		if n != len(reqs) {
			t.Errorf("SeD %s estimated %d times for %d requests with different inputs", name, n, len(reqs))
		}
	}
	if got := g.joined(); got != 0 {
		t.Errorf("%v collects with different inputs joined a walk, want 0", got)
	}
}

// BenchmarkConcurrentCallsTCP runs no-op calls from overlapping callers on
// the paper's platform (1 MA, one LA per cluster, 11 SeDs, round-robin) over
// loopback TCP: the path on which calls share the finding phase's walk.
// joined/op is the share of calls that rode another's walk.
func BenchmarkConcurrentCallsTCP(b *testing.B) {
	d, err := Deploy(paperTCPSpec(metrics.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	client, err := d.Client()
	if err != nil {
		b.Fatal(err)
	}
	call := func() error {
		p, err := NewProfile("double", 0, 0, 1)
		if err != nil {
			return err
		}
		p.SetScalarInt(0, 21, Volatile)
		_, err = client.Call(p)
		return err
	}
	if err := call(); err != nil { // dial outside the timer
		b.Fatal(err)
	}
	joined := d.MA.metrics.collectJoined.With(d.MA.Name())
	before := joined.Value()
	// Four callers per P, so that calls overlap on one CPU as well.
	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := call(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric((joined.Value()-before)/float64(b.N), "joined/op")
}
