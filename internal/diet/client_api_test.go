package diet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/rpc"
)

// The unified submission API: Call is the single code path, Submit and
// CallAsync are thin shims over it, and CallOptions swap behavior without
// forking the retry/trace logic.

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

func TestSubmitShimRanksServers(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-submit")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	reply, finding, err := client.Submit("double", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Servers) != 2 {
		t.Fatalf("Submit found %d servers, want 2", len(reply.Servers))
	}
	if finding <= 0 {
		t.Error("Submit reported a non-positive finding time")
	}
	// The shim must not solve anything — only find.
	if n := len(client.History()); n != 0 {
		t.Errorf("Submit recorded %d calls in history, want 0", n)
	}
}

func TestCallWithServersRotation(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-rotate")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	reply, _, err := client.Submit("double", 1)
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

func TestCallWithAsyncAndShim(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-async")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	// The option form: Call returns immediately, the outcome lands on the
	// handle.
	p1, _ := NewProfile("double", 0, 0, 1)
	p1.SetScalarInt(0, 3, Volatile)
	var h *AsyncCall
	if info, err := client.Call(p1, WithAsync(&h)); info != nil || err != nil {
		t.Fatalf("async Call returned (%v, %v), want (nil, nil)", info, err)
	}
	if h == nil {
		t.Fatal("WithAsync left the handle nil")
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p1.ScalarInt(1); v != 6 {
		t.Errorf("async result = %d, want 6", v)
	}

	// The deprecated shim routes through the same path.
	p2, _ := NewProfile("double", 0, 0, 1)
	p2.SetScalarInt(0, 4, Volatile)
	h2 := client.CallAsync(p2)
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, _ := p2.ScalarInt(1); v != 8 {
		t.Errorf("shim async result = %d, want 8", v)
	}
	if n := len(client.History()); n != 2 {
		t.Errorf("history has %d calls, want 2", n)
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
