package diet

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
)

func TestSweepEvictsDeadSeD(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-hb", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-hb-a", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
			{Name: "SeD-hb-b", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
		},
		Local: true, Metrics: metrics.NewRegistry(),
	})
	la := d.LAs[0]
	if got := len(la.Children()); got != 2 {
		t.Fatalf("LA starts with %d children", got)
	}

	// Kill one SeD, then drive the monitor by hand (MaxMissed defaults 3).
	d.SeDs[0].Close()
	for i := 0; i < 3; i++ {
		la.SweepChildren()
	}
	kids := la.Children()
	if len(kids) != 1 || kids[0].Name != "SeD-hb-b" {
		t.Fatalf("after sweeps children = %+v, want only SeD-hb-b", kids)
	}
	if n := evicted(la); n != 1 {
		t.Errorf("evicted count %v, want 1", n)
	}
	// Scheduling now never sees the dead SeD.
	ests := d.MA.CollectN("double", 0)
	if len(ests) != 1 || ests[0].ServerID != "SeD-hb-b" {
		t.Errorf("collect after eviction: %+v", ests)
	}
}

func TestSweepForgivesTransientMisses(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-hb2", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-hb2", Parent: "LA1", Services: []ServiceSpec{sleepService("double", 0, nil)}},
		},
		Local: true,
	})
	la := d.LAs[0]
	// Two misses, then the SeD "recovers" (it was never down — simulate the
	// miss counter by direct sweeps against a live SeD: all pass).
	la.SweepChildren()
	la.SweepChildren()
	if len(la.Children()) != 1 {
		t.Fatal("healthy SeD evicted")
	}
	// Manually age the counter to MaxMissed-1 and verify one good beat heals.
	la.mu.Lock()
	la.missed["SeD-hb2"] = 2
	la.mu.Unlock()
	la.SweepChildren() // live SeD answers: counter resets
	la.mu.RLock()
	missed := la.missed["SeD-hb2"]
	la.mu.RUnlock()
	if missed != 0 {
		t.Errorf("missed counter %d after a good beat, want 0", missed)
	}
}

func TestMonitorLoopEvicts(t *testing.T) {
	// End-to-end with the background loop: a dead SeD disappears within a
	// few heartbeat intervals.
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	naming := DeploymentSpec{
		MAName: "MA-hb3", LAs: nil, Local: true,
	}
	d, err := Deploy(naming)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	la, err := NewAgent(AgentConfig{
		Name: "LA-hb3", Kind: LocalAgent, Parent: "MA-hb3", Naming: d.NamingAddr,
		Local: true, HeartbeatInterval: 5 * time.Millisecond, MaxMissed: 2,
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Start(); err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	sed, err := NewSeD(SeDConfig{Name: "SeD-hb3", Parent: "LA-hb3", Naming: d.NamingAddr, Local: true})
	if err != nil {
		t.Fatal(err)
	}
	desc, _ := NewProfileDesc("noop", 0, 0, 0)
	sed.AddService(desc, func(*Profile) error { return nil })
	if err := sed.Start(); err != nil {
		t.Fatal(err)
	}
	if len(la.Children()) != 1 {
		t.Fatal("SeD did not attach")
	}
	sed.Close()
	deadline := time.After(2 * time.Second)
	for len(la.Children()) != 0 {
		select {
		case <-deadline:
			t.Fatal("monitor loop did not evict the dead SeD in time")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if n := evicted(la); n != 1 {
		t.Errorf("evicted %v, want 1", n)
	}
}
