package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataman"
	"repro/internal/diet"
	"repro/internal/gwproto"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// The tests of this file pin that the gateway ranks a solve with the data
// the solve names: its finding sends the profile's input references, so
// each SeD prices their transfer, and only solves with the same inputs share
// a finding.

// ingest reads the file at index 0, which a call passes by reference, and
// answers its length.
func ingest() diet.ServiceSpec {
	desc, err := diet.NewProfileDesc("ingest", 0, 0, 1)
	if err != nil {
		panic(err)
	}
	desc.Set(0, diet.File, diet.Char)
	desc.Set(1, diet.Scalar, diet.Int)
	return diet.ServiceSpec{
		Desc: desc,
		Solve: func(p *diet.Profile) error {
			_, content, err := p.FileBytes(0)
			if err != nil {
				return err
			}
			return p.SetScalarInt(1, int64(len(content)), diet.Volatile)
		},
	}
}

// refProfile is an ingest call that names its input by DataID.
func refProfile(t *testing.T, id string) *diet.Profile {
	t.Helper()
	p, err := diet.NewProfile("ingest", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetFileRef(0, "in.dat", id, diet.Persistent); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGatewaySolveLandsOnTheDataHolder: two SeDs of 4 and 3.9 GFlop/s under
// the forecast-aware policy, and an input priced at 80 000 MB held only by
// the slower. Cold, the faster SeD wins a data-blind ranking by its power;
// the holder prices the input at 0 s and the other at 800 s, so a solve that
// names the input must land on the holder, through Gateway.Solve and through
// POST /api/v1/solve alike. Until the gateway's finding sent the profile's
// references, both landed on the faster SeD, which then pulled the input.
func TestGatewaySolveLandsOnTheDataHolder(t *testing.T) {
	const holder, input = "SeD-holder", "snap/zoom1"
	deploy := func(ma string) *Gateway {
		rpc.ResetLocal()
		catalog := dataman.NewCatalog()
		d, err := diet.Deploy(diet.DeploymentSpec{
			MAName: ma, Policy: scheduler.NewForecastAware(), LAs: []string{"LA1"},
			SeDs: []diet.SeDSpec{
				{Name: "SeD-fast", Parent: "LA1", Capacity: 1, PowerGFlops: 4, Services: []diet.ServiceSpec{ingest()}},
				{Name: holder, Parent: "LA1", Capacity: 1, PowerGFlops: 3.9, Services: []diet.ServiceSpec{ingest()}},
			},
			Local: true, Data: catalog,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			d.Close()
			rpc.ResetLocal()
		})
		if err := catalog.Put(input, holder, dataman.Persistent, []byte("grafic")); err != nil {
			t.Fatal(err)
		}
		catalog.SetSizeMB(input, 80000)
		return newGateway(t, Config{Naming: d.NamingAddr, MAs: []string{ma}})
	}

	g := deploy("MA-gw-holder")
	info, _, err := g.Solve(refProfile(t, input))
	if err != nil {
		t.Fatal(err)
	}
	if info.Server != holder {
		t.Errorf("Gateway.Solve ran on %s, want the data holder %s", info.Server, holder)
	}

	g = deploy("MA-gw-holder-http")
	addr, shutdown, err := g.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	req, err := refProfile(t, input).WireRequest()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/api/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep gwproto.SolveReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d, %v", resp.StatusCode, err)
	}
	if rep.Server != holder {
		t.Errorf("POST /api/v1/solve ran on %s, want the data holder %s", rep.Server, holder)
	}
	if len(rep.Args) != 2 || rep.Args[1].Int == nil || *rep.Args[1].Int != int64(len("grafic")) {
		t.Errorf("reply args %+v, want the input's length %d", rep.Args, len("grafic"))
	}
}

// TestGatewayDifferentDataIDsNeverShareAFinding sends concurrent solves of
// one service that name different inputs, or none, while every finding is
// held at the SeD's estimate: each runs its own finding, none joins another,
// and the SeD estimates once per solve.
func TestGatewayDifferentDataIDsNeverShareAFinding(t *testing.T) {
	const ma, sed, local = "MA-gw-data", "SeD-gated", "gw-data-sed"
	d := deployOneMA(t, ma)
	var arrived atomic.Int64
	gate := make(chan struct{})
	srv := rpc.NewServer()
	srv.RegisterMethods("sed:"+sed, rpc.Methods{
		"Estimate": rpc.Typed(func(q *diet.EstimateQuery) (*diet.EstimateReply, error) {
			arrived.Add(1)
			<-gate
			reply := &diet.EstimateReply{OK: true}
			reply.Est.ServerID, reply.Est.Service, reply.Est.PowerGFlops = sed, q.Service, 4
			reply.Est.Addr = "local:" + local
			return reply, nil
		}),
		"Solve": func([]byte) (rpc.WireBody, error) { return &diet.SolveReply{Args: make([]diet.Arg, 1)}, nil },
	})
	addr, err := rpc.ServeLocal(local, srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var opened sync.Once
	open := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(open)
	if err := (&naming.Client{Addr: d.NamingAddr}).Register(naming.Entry{Name: sed, Addr: addr, Kind: "SeD"}); err != nil {
		t.Fatal(err)
	}
	la := d.LAs[0]
	if err := rpc.Call(la.Addr(), "agent:"+la.Name(), "ChildRegister", &diet.ChildInfo{Name: sed, Addr: addr, Kind: "SeD"}, &diet.ChildRegisterReply{}); err != nil {
		t.Fatal(err)
	}
	g := newGateway(t, Config{Naming: d.NamingAddr, MAs: []string{ma}})

	inline, _ := diet.NewProfile("ingest", 0, 0, 1)
	inline.SetFileBytes(0, "in.dat", []byte("x"), diet.Volatile)
	profiles := []*diet.Profile{inline}
	for _, id := range []string{"in-a", "in-b", `in-a"`, `in-a" "in-b`} {
		profiles = append(profiles, refProfile(t, id))
	}
	errs := make(chan error, len(profiles))
	for _, p := range profiles {
		go func(p *diet.Profile) {
			_, _, err := g.Solve(p)
			errs <- err
		}(p)
	}
	// Every solve either reaches the SeD with its own finding or joins one.
	deadline := time.Now().Add(10 * time.Second)
	for arrived.Load()+g.batched.Load() < int64(len(profiles)) {
		if time.Now().After(deadline) {
			t.Fatalf("%d estimates arrived and %d solves joined a finding, want %d in all",
				arrived.Load(), g.batched.Load(), len(profiles))
		}
		time.Sleep(time.Millisecond)
	}
	open()
	for range profiles {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := g.batched.Load(); got != 0 {
		t.Errorf("%d solves with different inputs joined another's finding, want 0", got)
	}
	if got := arrived.Load(); got != int64(len(profiles)) {
		t.Errorf("the SeD estimated %d times for %d solves with different inputs", got, len(profiles))
	}
}
