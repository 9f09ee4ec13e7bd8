package diet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/rpc"
)

// The client API: Call is the single code path, CallOptions swap behaviour
// without forking the retry/trace logic, FindServers is the finding phase on
// its own and CallAsync is Call on a goroutine.

func newAPIDeployment(t *testing.T, ma string) *Deployment {
	t.Helper()
	rpc.ResetLocal()
	return newTestDeployment(t, DeploymentSpec{
		MAName: ma,
		LAs:    []string{"LA1"},
		SeDs: []SeDSpec{
			{
				Name: "SeD-a", Parent: "LA1", Capacity: 1, PowerGFlops: 4,
				Services: []ServiceSpec{sleepService("double", 0, nil)},
			},
			{
				Name: "SeD-b", Parent: "LA1", Capacity: 1, PowerGFlops: 2,
				Services: []ServiceSpec{sleepService("double", 0, nil)},
			},
		},
		Local: true,
	})
}

func TestFindServersRanksWithoutSolving(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-find")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	reply, finding, err := client.FindServers("double", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Servers) != 2 {
		t.Fatalf("FindServers found %d servers, want 2", len(reply.Servers))
	}
	if finding <= 0 {
		t.Error("FindServers reported a non-positive finding time")
	}
	if n := len(client.History()); n != 0 {
		t.Errorf("FindServers recorded %d calls in history, want 0", n)
	}
	if _, _, err := client.FindServers("no-such-service", 1); err == nil {
		t.Error("FindServers for a service nobody offers should fail")
	}
}

func TestCallWithServersRotation(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-rotate")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	reply, _, err := client.FindServers("double", 1)
	if err != nil {
		t.Fatal(err)
	}
	// rotate=1 starts the failover walk at the runner-up, the batching
	// mechanism the gateway uses to spread a joined finding across the
	// ranked list.
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 7, Volatile)
	info, err := client.Call(p, WithServers(reply, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := reply.Servers[1].Name; info.Server != want {
		t.Errorf("rotated call went to %q, want runner-up %q", info.Server, want)
	}
	if info.Finding != 0 {
		t.Errorf("call with pre-found servers still paid %v finding time", info.Finding)
	}
	if v, _ := p.ScalarInt(1); v != 14 {
		t.Errorf("result = %d, want 14", v)
	}
}

// A one-server list binds the call to that server, the GridRPC
// grpc_function_handle_init: it lands there whatever the MA would rank, and
// is recorded in the history like any other call.
func TestBoundCallReachesNamedServer(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-bound")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	bound := &SubmitReply{Servers: []ServerRef{{Name: "SeD-b", Addr: d.SeDs[1].Addr()}}}
	for i := 0; i < 3; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		info, err := client.Call(p, WithServers(bound, 0))
		if err != nil {
			t.Fatal(err)
		}
		if info.Server != "SeD-b" {
			t.Fatalf("bound call used %q", info.Server)
		}
		if v, _ := p.ScalarInt(1); v != int64(2*i) {
			t.Errorf("bound call %d result %d, want %d", i, v, 2*i)
		}
	}
	hist := client.History()
	if len(hist) != 3 {
		t.Fatalf("history has %d calls, want the 3 bound calls", len(hist))
	}
	for _, h := range hist {
		if h.Server != "SeD-b" || h.RequestID == "" {
			t.Errorf("history entry %+v, want a traced call on SeD-b", h)
		}
	}
}

// CallAsync is Call on a goroutine (diet_call_async): options pass through,
// the outcome lands on the handle, WaitAll collects a set and reports the
// first error.
func TestCallAsyncWaitAll(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-async")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	bound := &SubmitReply{Servers: []ServerRef{{Name: "SeD-a", Addr: d.SeDs[0].Addr()}}}
	var calls []*AsyncCall
	var profiles []*Profile
	for i := 0; i < 4; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		profiles = append(profiles, p)
		if i == 0 {
			calls = append(calls, client.CallAsync(p, WithServers(bound, 0)))
		} else {
			calls = append(calls, client.CallAsync(p))
		}
	}
	if err := WaitAll(calls); err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		if v, _ := p.ScalarInt(1); v != int64(2*i) {
			t.Errorf("async call %d result %d, want %d", i, v, 2*i)
		}
	}
	if info, err := calls[0].Wait(); err != nil || info.Server != "SeD-a" {
		t.Errorf("bound async call = %+v, %v, want it on SeD-a", info, err)
	}
	if n := len(client.History()); n != 4 {
		t.Errorf("history has %d calls, want 4", n)
	}

	wrong, _ := NewProfile("no-such-service", 0, 0, 1)
	failing := client.CallAsync(wrong)
	if info, err := failing.Wait(); err == nil || info != nil {
		t.Errorf("async call of an unknown service = %+v, %v, want an error", info, err)
	}
	if err := WaitAll(append(calls, failing)); err == nil {
		t.Error("WaitAll swallowed the failed call's error")
	}
}

// A gateway that accepts the solve and never answers fails the call when the
// client's bound runs out; it used to hang the caller on the zero-timeout
// default HTTP client.
func TestGatewayCallTimesOutOnASilentGateway(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-silent-gw")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	if client.gatewayHTTP.Timeout != gatewayTimeout {
		t.Fatalf("gateway calls are bounded by %v, want gatewayTimeout", client.gatewayHTTP.Timeout)
	}
	release := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer silent.Close()
	defer close(release) // before Close, which waits for the handler
	client.gatewayHTTP.Timeout = 50 * time.Millisecond

	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 21, Volatile)
	done := make(chan error, 1)
	go func() {
		_, err := client.Call(p, WithGateway(silent.URL))
		done <- err
	}()
	select {
	case err := <-done:
		var timeout interface{ Timeout() bool }
		if err == nil || !errors.As(err, &timeout) || !timeout.Timeout() {
			t.Errorf("call to a silent gateway = %v, want a timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call to a silent gateway is still waiting after 200 times its bound")
	}
}
