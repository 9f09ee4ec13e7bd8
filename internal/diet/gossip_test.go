package diet

import (
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// TestGossipWarmStartsJoiningSeD walks the full sharing loop through a
// two-level hierarchy: a veteran SeD trains its monitor, gossip rounds carry
// its models up to the MA and across to a second LA, and a fresh SeD
// registering on the same cluster under that *other* LA warm-starts — its
// very first estimate carries a forecast with nonzero confidence.
func TestGossipWarmStartsJoiningSeD(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-gsp", LAs: []string{"LA-g1", "LA-g2"},
		SeDs: []SeDSpec{{
			Name: "SeD-gsp-vet", Parent: "LA-g1", Cluster: "grillon", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", 2*time.Millisecond, nil)},
		}},
		Local: true,
	})
	veteran := d.SeDs[0]

	// Train the veteran with varied work sizes so its model carries a fit.
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()
	for i := 0; i < 4; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := client.Call(p, WithWork(float64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}

	// Gossip rides the heartbeat sweeps: one LA round lifts the models into
	// LA-g1's registry, one MA round exchanges registries with both LAs —
	// after a second MA round every agent knows the grillon models.
	la1, la2 := d.LAs[0], d.LAs[1]
	la1.GossipRound()
	if _, ok := la1.Registry().Prior("grillon", "double"); !ok {
		t.Fatal("LA gossip round must lift the veteran's models into its registry")
	}
	d.MA.GossipRound()
	if _, ok := d.MA.Registry().Prior("grillon", "double"); !ok {
		t.Fatal("MA gossip round must merge the LA registry")
	}
	d.MA.GossipRound() // second round pushes the merged view down to LA-g2
	prior, ok := la2.Registry().Prior("grillon", "double")
	if !ok {
		t.Fatal("down-gossip must reach the sibling LA")
	}
	if prior.Samples != 4 || prior.EWMASeconds <= 0 {
		t.Fatalf("gossiped prior looks untrained: %+v", prior)
	}

	// A fresh SeD joins the characterized cluster under LA-g2: registration
	// hands it the prior and its first estimate already carries a forecast.
	joiner, err := NewSeD(SeDConfig{
		Name: "SeD-gsp-join", Parent: "LA-g2", Naming: d.NamingAddr,
		Cluster: "grillon", PowerGFlops: 50, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := sleepService("double", 2*time.Millisecond, nil)
	if err := joiner.AddService(spec.Desc, spec.Solve); err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	est := joiner.Estimate("double").Est
	if !est.HasForecast || est.ForecastSamples <= 0 {
		t.Fatalf("warm-started SeD must forecast before its first solve: %+v", est)
	}
	if est.ForecastConfidence < scheduler.MinConfidence {
		t.Fatalf("warm forecast confidence %g below the trust floor", est.ForecastConfidence)
	}
	model, ok := joiner.Monitor().Model("double")
	if !ok || !model.Warm {
		t.Fatalf("joiner's model must be flagged Warm, got ok=%v %+v", ok, model)
	}
	// The joiner holds only borrowed models, so it contributes nothing back
	// to gossip — the prior cannot echo through the registry.
	if got := joiner.Models(); len(got) != 0 {
		t.Fatalf("a warm-only SeD must withhold borrowed models from gossip, got %d", len(got))
	}
	// The warm model is the veteran's, not the advertised-power fallback.
	vet, _ := veteran.Monitor().Model("double")
	if got, want := model.SolveSeconds(2500), vet.SolveSeconds(2500); got <= 0 || want <= 0 ||
		got/want > 1.2 || want/got > 1.2 {
		t.Fatalf("warm forecast %gs diverges from the veteran's %gs", got, want)
	}

	// A SeD joining an *unknown* cluster stays cold.
	cold, err := NewSeD(SeDConfig{
		Name: "SeD-gsp-cold", Parent: "LA-g2", Naming: d.NamingAddr,
		Cluster: "violette", PowerGFlops: 50, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec2 := sleepService("double", 2*time.Millisecond, nil)
	if err := cold.AddService(spec2.Desc, spec2.Solve); err != nil {
		t.Fatal(err)
	}
	if err := cold.Start(); err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if est := cold.Estimate("double").Est; est.HasForecast {
		t.Fatalf("a SeD on an unknown cluster must stay cold, got %+v", est)
	}
}

// TestGossipRoundSkipsDeadChildren checks gossip degrades like a missed
// heartbeat: a closed SeD contributes nothing and does not stall the round.
func TestGossipRoundSkipsDeadChildren(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-gsp2", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-gsp2-a", Parent: "LA1", Cluster: "grillon", PowerGFlops: 50,
				Services: []ServiceSpec{sleepService("double", time.Millisecond, nil)}},
			{Name: "SeD-gsp2-b", Parent: "LA1", Cluster: "grillon", PowerGFlops: 50,
				Services: []ServiceSpec{sleepService("double", time.Millisecond, nil)}},
		},
		Local: true,
	})
	for _, sed := range d.SeDs {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, 1, Volatile)
		if _, err := sed.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	d.SeDs[1].Close()
	d.LAs[0].GossipRound()
	prior, ok := d.LAs[0].Registry().Prior("grillon", "double")
	if !ok {
		t.Fatal("the live SeD's models must still arrive")
	}
	if prior.Samples != 1 {
		t.Fatalf("prior must hold only the live SeD's sample, got %d", prior.Samples)
	}
}
