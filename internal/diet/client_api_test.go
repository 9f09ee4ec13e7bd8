package diet

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/scheduler"
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
	if len(reply.Estimates) != 2 {
		t.Fatalf("FindServers found %d servers, want 2", len(reply.Estimates))
	}
	if finding <= 0 {
		t.Error("FindServers reported a non-positive finding time")
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
	if want := reply.Estimates[1].ServerID; info.Server != want {
		t.Errorf("rotated call went to %q, want runner-up %q", info.Server, want)
	}
	if info.Finding != 0 {
		t.Errorf("call with pre-found servers still paid %v finding time", info.Finding)
	}
	if v, _ := p.ScalarInt(1); v != 14 {
		t.Errorf("result = %d, want 14", v)
	}
}

// rankedList is a submit reply that offers the named servers in the order
// given, each at its address: rankedList(name1, addr1, name2, addr2, …).
func rankedList(nameAddr ...string) *SubmitReply {
	reply := &SubmitReply{}
	for i := 0; i+1 < len(nameAddr); i += 2 {
		reply.Estimates = append(reply.Estimates, scheduler.Estimate{ServerID: nameAddr[i], Addr: nameAddr[i+1]})
	}
	return reply
}

// A one-server list binds the call to that server, the GridRPC
// grpc_function_handle_init: it lands there whatever the MA would rank, and
// is traced like any other call.
func TestBoundCallReachesNamedServer(t *testing.T) {
	d := newAPIDeployment(t, "MA-api-bound")
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	bound := rankedList("SeD-b", d.SeDs[1].Addr())
	for i := 0; i < 3; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		info, err := client.Call(p, WithServers(bound, 0))
		if err != nil {
			t.Fatal(err)
		}
		if info.Server != "SeD-b" || info.RequestID == "" {
			t.Fatalf("bound call %+v, want a traced call on SeD-b", info)
		}
		if v, _ := p.ScalarInt(1); v != int64(2*i) {
			t.Errorf("bound call %d result %d, want %d", i, v, 2*i)
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

	bound := rankedList("SeD-a", d.SeDs[0].Addr())
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

	wrong, _ := NewProfile("no-such-service", 0, 0, 1)
	failing := client.CallAsync(wrong)
	if info, err := failing.Wait(); err == nil || info != nil {
		t.Errorf("async call of an unknown service = %+v, %v, want an error", info, err)
	}
	if err := WaitAll(append(calls, failing)); err == nil {
		t.Error("WaitAll swallowed the failed call's error")
	}
}
