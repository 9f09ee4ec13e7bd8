package diet

import (
	"testing"

	"repro/internal/logsvc"
	"repro/internal/rpc"
)

func TestMonitoringTrace(t *testing.T) {
	// Deploy with a LogService bus attached to every component and verify
	// the VizDIET-style trace: starts, registrations, submission, solve.
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	bus := logsvc.New(1000)

	d, err := Deploy(DeploymentSpec{MAName: "MA-ev", Local: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Attach the instrumented components by hand under the same naming
	// service, so only they publish to the bus (DeploymentSpec.Events would
	// instrument the whole platform).
	la, err := NewAgent(AgentConfig{
		Name: "LA-ev", Kind: LocalAgent, Parent: "MA-ev",
		Naming: d.NamingAddr, Local: true, Events: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Start(); err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	sed, err := NewSeD(SeDConfig{
		Name: "SeD-ev", Parent: "LA-ev", Naming: d.NamingAddr, Local: true, Events: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	desc, _ := NewProfileDesc("double", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	sed.AddService(desc, func(p *Profile) error {
		v, _ := p.ScalarInt(0)
		return p.SetScalarInt(1, 2*v, Volatile)
	})
	if err := sed.Start(); err != nil {
		t.Fatal(err)
	}
	defer sed.Close()

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 4, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}

	counts := bus.CountsByKind()
	if counts["start"] != 2 { // LA + SeD (the MA was deployed without a sink)
		t.Errorf("start events %d, want 2", counts["start"])
	}
	if counts["child_register"] != 1 { // SeD under LA
		t.Errorf("child_register events %d, want 1", counts["child_register"])
	}
	if counts["solve_begin"] != 1 || counts["solve_end"] != 1 {
		t.Errorf("solve events begin=%d end=%d, want 1/1", counts["solve_begin"], counts["solve_end"])
	}
	comps := map[string]bool{}
	for _, ev := range bus.History() {
		comps[ev.Component] = true
	}
	if len(comps) != 2 {
		t.Errorf("components %v", comps)
	}
}
