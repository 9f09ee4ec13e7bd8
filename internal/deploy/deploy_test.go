package deploy

import (
	"strings"
	"testing"

	"repro/internal/diet"
	"repro/internal/platform"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func TestTopologyPlanShape(t *testing.T) {
	d := platform.PaperDeployment()
	p, err := Topology(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's deployment: 6 clusters → 6 LAs, 11 SeDs.
	if len(p.LAs) != 6 {
		t.Errorf("%d LAs, want 6", len(p.LAs))
	}
	if len(p.SeDs) != 11 {
		t.Errorf("%d SeDs, want 11", len(p.SeDs))
	}
	// Locality: every LA sits at its cluster's site, every SeD under the LA
	// of its own cluster.
	laSite := map[string]string{}
	for _, la := range p.LAs {
		laSite[la.Name] = la.Site
	}
	for _, s := range p.SeDs {
		if laSite[s.Parent] != s.Site {
			t.Errorf("SeD %s at %s parents to LA at %s", s.Name, s.Site, laSite[s.Parent])
		}
	}
	if p.MA.Site != "Lyon" {
		t.Errorf("MA at %s, want Lyon", p.MA.Site)
	}
}

func TestFlatPlanShape(t *testing.T) {
	d := platform.PaperDeployment()
	p, err := Flat(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.LAs) != 1 || p.LAs[0].Site != "Lyon" {
		t.Errorf("flat plan LAs: %+v", p.LAs)
	}
}

func TestTopologyBeatsFlatOnWANTraffic(t *testing.T) {
	// The §3.1 claim made quantitative: the topology-aware hierarchy costs
	// fewer wide-area messages per scheduling request.
	d := platform.PaperDeployment()
	topo, _ := Topology(d)
	flat, _ := Flat(d)
	tw, fw := topo.WANMessagesPerRequest(), flat.WANMessagesPerRequest()
	if tw >= fw {
		t.Errorf("topology-aware WAN messages %d should beat flat %d", tw, fw)
	}
	// Concretely: topo pays WAN only MA→LA for the 5 non-Lyon... Lyon LAs
	// are local; flat pays WAN LA→SeD for every non-Lyon SeD.
	if tw != 8 { // 4 non-Lyon clusters × 2 messages
		t.Errorf("topology WAN messages = %d, want 8", tw)
	}
	if fw != 16 { // 8 non-Lyon SeDs × 2 messages
		t.Errorf("flat WAN messages = %d, want 16", fw)
	}
}

func TestCollectLatency(t *testing.T) {
	plat := platform.Grid5000()
	d := platform.PaperDeployment()
	topo, _ := Topology(d)
	flat, _ := Flat(d)
	lt, lf := topo.CollectLatency(plat), flat.CollectLatency(plat)
	if lt <= 0 || lf <= 0 {
		t.Fatal("latencies must be positive")
	}
	// Both traverse one WAN round trip on the worst path, so the flat plan
	// is no faster despite its shorter tree.
	if lf < lt-1e-9 {
		t.Errorf("flat latency %g should not beat topology-aware %g", lf, lt)
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	d := platform.PaperDeployment()
	p, _ := Topology(d)
	bad := *p
	bad.SeDs = append([]Node(nil), p.SeDs...)
	bad.SeDs[0].Parent = "LA-ghost"
	if err := bad.Validate(); err == nil {
		t.Error("unknown parent should fail validation")
	}
	dup := *p
	dup.SeDs = append([]Node(nil), p.SeDs...)
	dup.SeDs[1].Name = dup.SeDs[0].Name
	if err := dup.Validate(); err == nil {
		t.Error("duplicate SeD name should fail validation")
	}
	empty := Plan{MA: Node{Name: "MA1"}, Naming: Node{Name: "naming"}}
	if err := empty.Validate(); err == nil {
		t.Error("plan without SeDs should fail validation")
	}
	if _, err := Topology(platform.Deployment{MASite: "X"}); err == nil {
		t.Error("deployment without SeDs should fail")
	}
}

func TestSpecDeploysForReal(t *testing.T) {
	// The plan must convert into a deployment that actually comes up and
	// serves calls — the full §6.1 shape (1 MA, 6 LA, 11 SeD) in-process.
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	desc, _ := diet.NewProfileDesc("echo", 0, 0, 1)
	desc.Set(0, diet.Scalar, diet.Int)
	desc.Set(1, diet.Scalar, diet.Int)
	services := []diet.ServiceSpec{{
		Desc: desc,
		Solve: func(p *diet.Profile) error {
			v, err := p.ScalarInt(0)
			if err != nil {
				return err
			}
			return p.SetScalarInt(1, v, diet.Volatile)
		},
	}}
	plan, err := Topology(platform.PaperDeployment())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Spec(scheduler.NewPowerAware(), services, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diet.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if ests := d.MA.Collect("echo"); len(ests) != 11 {
		t.Fatalf("collected %d estimates, want 11", len(ests))
	}
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := diet.NewProfile("echo", 0, 0, 1)
	p.SetScalarInt(0, 7, diet.Volatile)
	info, err := client.Call(p)
	if err != nil {
		t.Fatal(err)
	}
	// PowerAware must pick one of the Nancy SeDs (highest aggregate power).
	if !strings.HasPrefix(info.Server, "Nancy") {
		t.Errorf("power-aware first pick %q, want a Nancy SeD", info.Server)
	}
}

func TestCommands(t *testing.T) {
	plan, _ := Topology(platform.PaperDeployment())
	cmds := plan.Commands("ma-host:9001")
	joined := strings.Join(cmds, "\n")
	for _, want := range []string{
		"dietagent -name MA1 -kind MA -host-naming ma-host:9001",
		"dietagent -name LA-grillon -kind LA -parent MA1",
		"dietsed -name Nancy1 -parent LA-grillon -naming ma-host:9001",
		"-cluster violette",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("commands missing %q", want)
		}
	}
	// One launch line per component.
	launches := 0
	for _, c := range cmds {
		if strings.HasPrefix(c, "dietagent") || strings.HasPrefix(c, "dietsed") {
			launches++
		}
	}
	if launches != 1+6+11 {
		t.Errorf("%d launch commands, want 18", launches)
	}
}
