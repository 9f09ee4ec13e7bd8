package diet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// sleepService returns a descriptor and solve function for a service that
// doubles an int after an optional delay.
func sleepService(name string, delay time.Duration, counter *atomic.Int64) ServiceSpec {
	desc, err := NewProfileDesc(name, 0, 0, 1)
	if err != nil {
		panic(err)
	}
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	return ServiceSpec{
		Desc: desc,
		Solve: func(p *Profile) error {
			if counter != nil {
				counter.Add(1)
			}
			v, err := p.ScalarInt(0)
			if err != nil {
				return err
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			return p.SetScalarInt(1, 2*v, Volatile)
		},
	}
}

// newTestDeployment brings up a local-transport platform with a given shape.
func newTestDeployment(t *testing.T, spec DeploymentSpec) *Deployment {
	t.Helper()
	d, err := Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		rpc.ResetLocal()
	})
	return d
}

func TestEndToEndCall(t *testing.T) {
	// The default policy without a work hint, and a plug-in policy ranking
	// with the client's WithWork estimate, serve the call the same way.
	for _, tc := range []struct {
		name   string
		policy scheduler.Policy
		opts   []CallOption
	}{
		{"default", nil, nil},
		{"poweraware_WithWork", scheduler.NewPowerAware(), []CallOption{WithWork(100)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rpc.ResetLocal()
			d := newTestDeployment(t, DeploymentSpec{
				MAName: "MA-e2e",
				LAs:    []string{"LA1"},
				SeDs: []SeDSpec{{
					Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 4,
					Services: []ServiceSpec{sleepService("double", 0, nil)},
				}},
				Policy: tc.policy,
				Local:  true,
			})
			client, err := d.Client()
			if err != nil {
				t.Fatal(err)
			}
			defer client.Finalize()

			p, _ := NewProfile("double", 0, 0, 1)
			p.SetScalarInt(0, 21, Volatile)
			info, err := client.Call(p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if info.Server != "SeD1" {
				t.Errorf("served by %q", info.Server)
			}
			if v, err := p.ScalarInt(1); err != nil || v != 42 {
				t.Errorf("result = %d, %v; want 42", v, err)
			}
			if info.Finding <= 0 || info.Total <= 0 {
				t.Errorf("timings not recorded: %+v", info)
			}
		})
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-tcp",
		LAs:    []string{"LA1"},
		SeDs: []SeDSpec{{
			Name: "SeD-tcp-1", Parent: "LA1", Capacity: 1, PowerGFlops: 4,
			Services: []ServiceSpec{sleepService("double", 0, nil)},
		}},
		Local: false, // real sockets
	})
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 5, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.ScalarInt(1); v != 10 {
		t.Errorf("result %d, want 10", v)
	}
}

func TestUnknownServiceFails(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-unknown",
		LAs:    []string{"LA1"},
		SeDs: []SeDSpec{{
			Name: "SeD1u", Parent: "LA1",
			Services: []ServiceSpec{sleepService("double", 0, nil)},
		}},
		Local: true,
	})
	client, _ := d.Client()
	p, _ := NewProfile("ghostService", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	if _, err := client.Call(p); err == nil {
		t.Error("unknown service should fail")
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	// The paper's experiment shape in miniature: a burst of requests spread
	// equally over the SeDs.
	rpc.ResetLocal()
	var seds []SeDSpec
	counters := make([]*atomic.Int64, 4)
	for i := range counters {
		counters[i] = &atomic.Int64{}
		seds = append(seds, SeDSpec{
			Name: fmt.Sprintf("SeD-rr-%d", i), Parent: "LA1", Capacity: 1,
			Services: []ServiceSpec{sleepService("work", time.Millisecond, counters[i])},
		})
	}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-rr", LAs: []string{"LA1"}, SeDs: seds,
		Policy: scheduler.NewRoundRobin(), Local: true,
	})
	client, _ := d.Client()

	const n = 20
	var calls []*AsyncCall
	for i := 0; i < n; i++ {
		p, _ := NewProfile("work", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		calls = append(calls, client.CallAsync(p))
	}
	if err := WaitAll(calls); err != nil {
		t.Fatal(err)
	}
	for i, c := range counters {
		if got := c.Load(); got != n/4 {
			t.Errorf("SeD %d solved %d, want %d", i, got, n/4)
		}
	}
}

func TestSeDQueueSerialises(t *testing.T) {
	// Capacity 1 means overlapping calls must serialise; queue wait shows in
	// the second call's timing.
	rpc.ResetLocal()
	var running, maxRunning atomic.Int64
	desc, _ := NewProfileDesc("slow", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	spec := ServiceSpec{
		Desc: desc,
		Solve: func(p *Profile) error {
			cur := running.Add(1)
			for {
				m := maxRunning.Load()
				if cur <= m || maxRunning.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(30 * time.Millisecond)
			running.Add(-1)
			return p.SetScalarInt(1, 1, Volatile)
		},
	}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-q", LAs: []string{"LA1"},
		SeDs:  []SeDSpec{{Name: "SeD-q", Parent: "LA1", Capacity: 1, Services: []ServiceSpec{spec}}},
		Local: true,
	})
	client, _ := d.Client()
	var calls []*AsyncCall
	for i := 0; i < 4; i++ {
		p, _ := NewProfile("slow", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		calls = append(calls, client.CallAsync(p))
	}
	if err := WaitAll(calls); err != nil {
		t.Fatal(err)
	}
	if m := maxRunning.Load(); m != 1 {
		t.Errorf("max concurrent solves %d, want 1 (capacity)", m)
	}
	// The last-finishing call waited roughly 3 solve times.
	var maxWait time.Duration
	for _, c := range calls {
		info, _ := c.Wait()
		if info.QueueWait > maxWait {
			maxWait = info.QueueWait
		}
	}
	if maxWait < 60*time.Millisecond {
		t.Errorf("max queue wait %v, want >= 60ms for a serialised burst", maxWait)
	}
}

func TestFaultToleranceFallsOver(t *testing.T) {
	// Two SeDs; the first-ranked one dies after registration. The client
	// must fall over to the second.
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-ft", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-ft-a", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
			{Name: "SeD-ft-b", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
		},
		Policy: scheduler.NewRoundRobin(), Local: true,
	})
	client, _ := d.Client()

	// Kill the SeD the round-robin would pick first (sorted by name: a).
	d.SeDs[0].Close()

	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 3, Volatile)
	info, err := client.Call(p)
	if err != nil {
		t.Fatalf("call should fall over to the live SeD: %v", err)
	}
	if info.Server != "SeD-ft-b" {
		t.Errorf("served by %q, want SeD-ft-b", info.Server)
	}
	if v, _ := p.ScalarInt(1); v != 6 {
		t.Errorf("result %d, want 6", v)
	}
}

func TestHierarchyTwoLevels(t *testing.T) {
	// MA -> 2 LAs -> 2 SeDs each: Collect must reach all four.
	rpc.ResetLocal()
	var seds []SeDSpec
	for la := 1; la <= 2; la++ {
		for i := 1; i <= 2; i++ {
			seds = append(seds, SeDSpec{
				Name: fmt.Sprintf("SeD-h-%d-%d", la, i), Parent: fmt.Sprintf("LA%d", la),
				Services: []ServiceSpec{sleepService("double", 0, nil)},
			})
		}
	}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-h", LAs: []string{"LA1", "LA2"}, SeDs: seds, Local: true,
	})
	ests := d.MA.Collect("double")
	if len(ests) != 4 {
		t.Fatalf("collected %d estimates, want 4", len(ests))
	}
	topo := d.MA.Topology()
	if len(topo.Children) != 2 {
		t.Errorf("MA has %d children, want 2 LAs", len(topo.Children))
	}
	for _, la := range topo.Children {
		if len(la.Children) != 2 {
			t.Errorf("LA %s has %d children, want 2", la.Name, len(la.Children))
		}
	}
}

func TestPersistentData(t *testing.T) {
	rpc.ResetLocal()
	desc, _ := NewProfileDesc("persist", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Text, Char)
	spec := ServiceSpec{
		Desc: desc,
		Solve: func(p *Profile) error {
			return p.SetString(1, "stored-result", Persistent)
		},
	}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-p", LAs: []string{"LA1"},
		SeDs:  []SeDSpec{{Name: "SeD-p", Parent: "LA1", Services: []ServiceSpec{spec}}},
		Local: true,
	})
	client, _ := d.Client()
	p, _ := NewProfile("persist", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}
	id := p.Args[1].DataID
	if id == "" {
		t.Fatal("persistent OUT arg should get a DataID")
	}
	if data, ok := d.SeDs[0].StoredData(id); !ok || string(data) != "stored-result" {
		t.Errorf("server store: %q, %v", data, ok)
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent(AgentConfig{Name: "", Kind: MasterAgent}); err == nil {
		t.Error("agent without name should fail")
	}
	if _, err := NewAgent(AgentConfig{Name: "MA", Kind: MasterAgent, Parent: "X"}); err == nil {
		t.Error("MA with parent should fail")
	}
	if _, err := NewAgent(AgentConfig{Name: "LA", Kind: LocalAgent}); err == nil {
		t.Error("LA without parent should fail")
	}
}

func TestSeDValidation(t *testing.T) {
	if _, err := NewSeD(SeDConfig{}); err == nil {
		t.Error("SeD without name should fail")
	}
	sed, err := NewSeD(SeDConfig{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.AddService(nil, nil); err == nil {
		t.Error("nil service should fail")
	}
	desc, _ := NewProfileDesc("a", 0, 0, 0)
	solve := func(*Profile) error { return nil }
	if err := sed.AddService(desc, solve); err != nil {
		t.Fatal(err)
	}
	if err := sed.AddService(desc, solve); err == nil {
		t.Error("duplicate service should fail")
	}
	names := sed.ServiceNames()
	if len(names) != 1 || names[0] != "a" {
		t.Errorf("ServiceNames = %v", names)
	}
}

func TestClientConfigParsing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "client.cfg")
	content := `
# DIET client configuration
namingAddr = local:naming-test
MAName = MA7
traceLevel = 2
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseClientConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Naming != "local:naming-test" || cfg.MAName != "MA7" || cfg.TraceLevel != 2 {
		t.Errorf("parsed %+v", cfg)
	}

	bad := filepath.Join(dir, "bad.cfg")
	os.WriteFile(bad, []byte("nonsense line\n"), 0o644)
	if _, err := ParseClientConfig(bad); err == nil {
		t.Error("malformed config should fail")
	}
	empty := filepath.Join(dir, "empty.cfg")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if _, err := ParseClientConfig(empty); err == nil {
		t.Error("config without namingAddr should fail")
	}
	unknown := filepath.Join(dir, "unknown.cfg")
	os.WriteFile(unknown, []byte("mystery = 1\n"), 0o644)
	if _, err := ParseClientConfig(unknown); err == nil {
		t.Error("unknown key should fail")
	}
}

func TestInitializeFromConfigFile(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-cfg", LAs: []string{"LA1"},
		SeDs: []SeDSpec{{Name: "SeD-cfg", Parent: "LA1",
			Services: []ServiceSpec{sleepService("double", 0, nil)}}},
		Local: true,
	})
	path := filepath.Join(t.TempDir(), "client.cfg")
	content := fmt.Sprintf("namingAddr = %s\nMAName = MA-cfg\n", d.NamingAddr)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	client, err := Initialize(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 8, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.ScalarInt(1); v != 16 {
		t.Errorf("result %d", v)
	}
}

func TestClientHistory(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-hist", LAs: []string{"LA1"},
		SeDs: []SeDSpec{{Name: "SeD-hist", Parent: "LA1",
			Services: []ServiceSpec{sleepService("double", 0, nil)}}},
		Local: true,
	})
	client, _ := d.Client()
	for i := 0; i < 3; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := client.Call(p); err != nil {
			t.Fatal(err)
		}
	}
	h := client.History()
	if len(h) != 3 {
		t.Fatalf("history has %d entries", len(h))
	}
	for _, info := range h {
		if info.Total < info.Compute {
			t.Errorf("total %v < compute %v", info.Total, info.Compute)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-cc", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-cc-1", Parent: "LA1", Capacity: 2, Services: []ServiceSpec{sleepService("double", 0, nil)}},
			{Name: "SeD-cc-2", Parent: "LA1", Capacity: 2, Services: []ServiceSpec{sleepService("double", 0, nil)}},
		},
		Local: true,
	})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := d.Client()
			if err != nil {
				errs[c] = err
				return
			}
			for i := 0; i < 5; i++ {
				p, _ := NewProfile("double", 0, 0, 1)
				p.SetScalarInt(0, int64(i), Volatile)
				if _, err := client.Call(p); err != nil {
					errs[c] = err
					return
				}
				if v, _ := p.ScalarInt(1); v != int64(2*i) {
					errs[c] = fmt.Errorf("client %d: got %d want %d", c, v, 2*i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveErrorSurfacesWhenAllServersFail(t *testing.T) {
	rpc.ResetLocal()
	desc, _ := NewProfileDesc("broken", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	spec := ServiceSpec{
		Desc:  desc,
		Solve: func(p *Profile) error { return fmt.Errorf("solver exploded") },
	}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-br", LAs: []string{"LA1"},
		SeDs:  []SeDSpec{{Name: "SeD-br", Parent: "LA1", Services: []ServiceSpec{spec}}},
		Local: true,
	})
	client, _ := d.Client()
	p, _ := NewProfile("broken", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	_, err := client.Call(p)
	if err == nil || !strings.Contains(err.Error(), "solver exploded") {
		t.Errorf("got %v", err)
	}
}
