package deploy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cori"
	"repro/internal/diet"
	"repro/internal/platform"
)

// liveTopologyOf builds the diet.TopologyNode a running hierarchy would
// report for a given SeD→parent assignment under one MA.
func liveTopologyOf(ma string, las []string, parentOf map[string]string) diet.TopologyNode {
	root := diet.TopologyNode{Name: ma, Kind: "MA"}
	byLA := make(map[string][]diet.TopologyNode)
	for sed, la := range parentOf {
		byLA[la] = append(byLA[la], diet.TopologyNode{Name: sed, Kind: "SeD"})
	}
	for _, la := range las {
		node := diet.TopologyNode{Name: la, Kind: "LA", Children: byLA[la]}
		root.Children = append(root.Children, node)
	}
	return root
}

func TestDiffLiveReportsOnlyParentMoves(t *testing.T) {
	d := platform.PaperDeployment()
	plan, err := TopologyWith(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var las []string
	for _, la := range plan.LAs {
		las = append(las, la.Name)
	}
	// A live hierarchy matching the plan exactly diffs to nothing.
	aligned := make(map[string]string)
	for _, s := range plan.SeDs {
		aligned[s.Name] = s.Parent
	}
	if changes := DiffLive(plan, liveTopologyOf("MA1", las, aligned)); len(changes) != 0 {
		t.Fatalf("aligned hierarchy must diff clean, got %v", changes)
	}
	// Mis-place two SeDs: exactly those two come back, steering to the plan.
	misplaced := make(map[string]string)
	for k, v := range aligned {
		misplaced[k] = v
	}
	misplaced["Nancy1"] = plan.SeDs[0].Parent // wrong cluster's LA
	if misplaced["Nancy1"] == aligned["Nancy1"] {
		misplaced["Nancy1"] = las[0]
	}
	misplaced["Toulouse2"] = las[1]
	if misplaced["Toulouse2"] == aligned["Toulouse2"] {
		misplaced["Toulouse2"] = las[2]
	}
	changes := DiffLive(plan, liveTopologyOf("MA1", las, misplaced))
	if len(changes) != 2 {
		t.Fatalf("want 2 changes, got %v", changes)
	}
	for _, c := range changes {
		if c.NewParent != aligned[c.SeD] || c.OldParent != misplaced[c.SeD] {
			t.Fatalf("change steers wrong: %+v", c)
		}
	}
	// A SeD absent from the live topology is not migrated.
	delete(misplaced, "Nancy1")
	if changes := DiffLive(plan, liveTopologyOf("MA1", las, misplaced)); len(changes) != 1 {
		t.Fatalf("absent SeD must be skipped, got %v", changes)
	}
}

func TestPlanMigrationsSkipsDeadTargetsAndNoopRefreshes(t *testing.T) {
	d := platform.PaperDeployment()
	plan, err := TopologyWith(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Live hierarchy has only one of the planned LAs; every SeD sits there.
	// The static plan used no measurements, so there is nothing to refresh
	// and nowhere alive to move: a fully quiet pass.
	la := plan.SeDs[0].Parent
	parentOf := make(map[string]string)
	for _, s := range plan.SeDs {
		parentOf[s.Name] = la
	}
	migs := PlanMigrations(plan, liveTopologyOf("MA1", []string{la}, parentOf))
	if len(migs) != 0 {
		t.Fatalf("static plan over dead targets must migrate nothing, got %+v", migs)
	}

	// A measured plan keeps refreshing power for placement-correct SeDs
	// whose placement the plan derived from a trusted measurement — but
	// still never targets a dead agent.
	caps := map[string]Capability{plan.SeDs[0].Name: {MeasuredGFlops: 10, Confidence: 0.9}}
	measured, err := TopologyWith(d, Options{Capabilities: func(sed string) (Capability, bool) {
		c, ok := caps[sed]
		return c, ok
	}})
	if err != nil {
		t.Fatal(err)
	}
	migs = PlanMigrations(measured, liveTopologyOf("MA1", []string{la}, parentOf))
	if len(migs) != 1 {
		t.Fatalf("want exactly the measured SeD's refresh, got %+v", migs)
	}
	if m := migs[0]; m.NewParent != la || m.NewPower <= 0 {
		t.Fatalf("refresh %+v must keep the live placement and carry the planned power", m)
	}
}

// TestRegistrySourceReadsPerSource checks the capability adapter reads each
// SeD's own contribution, not the cluster blend, and declines unknown SeDs.
func TestRegistrySourceReadsPerSource(t *testing.T) {
	reg := cori.NewRegistry()
	mon := cori.NewMonitor(cori.Config{})
	for i := 0; i < 8; i++ {
		work := float64(1000 + 300*i)
		mon.Observe(cori.Sample{Service: "zoom", WorkGFlops: work,
			Duration: time.Duration(work / 25 * float64(time.Second))})
	}
	model, _ := mon.Model("zoom")
	reg.Update("sed-a", "grillon", time.Now(), []cori.Model{model})

	src := RegistrySource(reg, "zoom")
	cap, ok := src("sed-a")
	if !ok || cap.MeasuredGFlops < 20 || cap.MeasuredGFlops > 30 {
		t.Fatalf("capability = %+v ok=%v, want ~25 GFlops", cap, ok)
	}
	if _, ok := src("sed-b"); ok {
		t.Fatal("unknown SeD must report no capability")
	}
	if _, ok := RegistrySource(nil, "zoom")("sed-a"); ok {
		t.Fatal("nil registry must report no capability")
	}
	// Registry contributions arrive off the wire verbatim; the adapter must
	// refuse non-finite values rather than plan with them.
	for name, m := range map[string]cori.Model{
		"inf-power": {Service: "zoom", Samples: 5, Confidence: 0.9, EWMASeconds: 1, PerGFlopSeconds: 1e-320, MeasuredGFlops: math.Inf(1)},
		"nan-conf":  {Service: "zoom", Samples: 5, Confidence: math.NaN(), EWMASeconds: 10, MeanWorkGFlops: 100},
	} {
		reg.Update(name, "grillon", time.Now(), []cori.Model{m})
		if got, ok := src(name); ok {
			t.Fatalf("%s: corrupt contribution must report no capability, got %+v", name, got)
		}
	}
	// An out-of-range confidence is clamped, not rejected.
	reg.Update("hot-conf", "grillon", time.Now(), []cori.Model{
		{Service: "zoom", Samples: 5, Confidence: 42, EWMASeconds: 10, MeanWorkGFlops: 100},
	})
	if got, ok := src("hot-conf"); !ok || got.Confidence != 1 {
		t.Fatalf("confidence must clamp to 1, got %+v ok=%v", got, ok)
	}
}

// TestLiveReplannerConvergesLiveHierarchy wires the whole loop against a
// real in-process hierarchy: SeDs deployed under scrambled parents, a
// LiveReplanner over the MA's (empty) registry steering them back to the
// planned placement via Agent.ApplyPlan.
func TestLiveReplannerConvergesLiveHierarchy(t *testing.T) {
	dep := platform.Deployment{
		MASite: "Lyon",
		SeDs: []platform.SeDPlacement{
			{Name: "n1", Site: "Nancy", Cluster: "grillon", Machines: 4, CPU: platform.Opteron246},
			{Name: "n2", Site: "Nancy", Cluster: "grillon", Machines: 4, CPU: platform.Opteron246},
			{Name: "t1", Site: "Toulouse", Cluster: "violette", Machines: 4, CPU: platform.Opteron246},
		},
	}
	plan, err := TopologyWith(dep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Spec(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// Scramble: every SeD starts under the violette LA.
	for i := range spec.SeDs {
		spec.SeDs[i].Parent = "LA-violette"
	}
	live, err := diet.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	replanner := LiveReplanner(dep, "ramsesZoom2")
	migs := replanner(live.MA.Topology(), live.MA.Registry())
	// n1 and n2 move to LA-grillon; t1 is already placed right and the
	// (empty-registry) plan used no measurement, so it is left alone.
	if len(migs) != 2 {
		t.Fatalf("want 2 migrations, got %+v", migs)
	}
	for _, r := range live.MA.ApplyPlan(migs) {
		if r.Err != "" {
			t.Fatalf("migration failed: %+v", r)
		}
	}
	wantParent := map[string]string{"n1": "LA-grillon", "n2": "LA-grillon", "t1": "LA-violette"}
	for _, sed := range live.SeDs {
		if got := sed.Stats().Parent; got != wantParent[sed.Name()] {
			t.Fatalf("SeD %s under %q, want %q", sed.Name(), got, wantParent[sed.Name()])
		}
	}
	// A second pass is a fixed point: nothing moves.
	for _, r := range live.MA.ApplyPlan(replanner(live.MA.Topology(), live.MA.Registry())) {
		if r.Moved() {
			t.Fatalf("replan is not idempotent: %+v", r)
		}
	}
}

// TestReplanApplyProperty is the structural safety property of live
// replanning: for any generated deployment, any capability skew and any
// scrambled live placement, applying the measured replan's migrations always
// yields a connected hierarchy — every SeD reachable from the MA through a
// live LA, and exactly one parent per SeD.
func TestReplanApplyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cpus := []platform.CPU{{Model: "a", GHz: 2, GFlops: 4}, {Model: "b", GHz: 2.2, GFlops: 4.4}, {Model: "c", GHz: 2.6, GFlops: 5.2}}
	for iter := 0; iter < 200; iter++ {
		// Random deployment: 1..5 clusters, 1..4 SeDs each.
		nClusters := 1 + rng.Intn(5)
		var dep platform.Deployment
		dep.MASite = "site0"
		sedCluster := make(map[string]string)
		for c := 0; c < nClusters; c++ {
			cluster := fmt.Sprintf("cl%d", c)
			site := fmt.Sprintf("site%d", rng.Intn(3))
			for s := 0; s < 1+rng.Intn(4); s++ {
				name := fmt.Sprintf("sed-%d-%d", c, s)
				dep.SeDs = append(dep.SeDs, platform.SeDPlacement{
					Name: name, Site: site, Cluster: cluster,
					Machines: 1 + rng.Intn(16), CPU: cpus[rng.Intn(len(cpus))],
				})
				sedCluster[name] = cluster
			}
		}
		// Random capability skew: some SeDs measured at a random fraction of
		// advertised power, some unknown.
		caps := make(map[string]Capability)
		for _, s := range dep.SeDs {
			if rng.Intn(2) == 0 {
				caps[s.Name] = Capability{
					MeasuredGFlops: s.PowerGFlops() * (0.2 + 1.6*rng.Float64()),
					Confidence:     rng.Float64(),
				}
			}
		}
		src := func(sed string) (Capability, bool) { c, ok := caps[sed]; return c, ok }

		plan, _, err := Replan(dep, Options{Capabilities: src})
		if err != nil {
			t.Fatalf("iter %d: replan: %v", iter, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("iter %d: measured plan invalid: %v", iter, err)
		}

		// Scramble a live hierarchy: every SeD lands under a random planned
		// LA; occasionally drop an LA from the live set or a SeD entirely.
		var las []string
		for _, la := range plan.LAs {
			if rng.Intn(8) == 0 && len(plan.LAs) > 1 {
				continue // this LA never came up
			}
			las = append(las, la.Name)
		}
		if len(las) == 0 {
			las = []string{plan.LAs[0].Name}
		}
		parentOf := make(map[string]string)
		for _, s := range plan.SeDs {
			if rng.Intn(10) == 0 {
				continue // SeD not deployed
			}
			parentOf[s.Name] = las[rng.Intn(len(las))]
		}
		live := liveTopologyOf("MA1", las, parentOf)

		// Apply the migrations the way Agent.ApplyPlan does: a move only
		// succeeds when the target agent is alive; the SeD always keeps
		// exactly one parent.
		liveLA := make(map[string]bool)
		for _, la := range las {
			liveLA[la] = true
		}
		migs := PlanMigrations(plan, live)
		seen := make(map[string]bool)
		for _, m := range migs {
			if seen[m.SeD] {
				t.Fatalf("iter %d: SeD %s migrated twice in one plan", iter, m.SeD)
			}
			seen[m.SeD] = true
			if _, present := parentOf[m.SeD]; !present {
				t.Fatalf("iter %d: migration for undeployed SeD %s", iter, m.SeD)
			}
			if !liveLA[m.NewParent] {
				t.Fatalf("iter %d: migration %+v targets a dead agent", iter, m)
			}
			parentOf[m.SeD] = m.NewParent // the reparent
		}

		// Post-apply invariants: exactly one parent per SeD, parent alive,
		// and therefore every SeD reachable MA → LA → SeD.
		for sed, parent := range parentOf {
			if !liveLA[parent] {
				t.Fatalf("iter %d: SeD %s orphaned under dead agent %s", iter, sed, parent)
			}
		}
		// Everything the plan could place (its parent LA is alive) converged
		// to the planned placement.
		for _, s := range plan.SeDs {
			cur, present := parentOf[s.Name]
			if !present || !liveLA[s.Parent] {
				continue
			}
			if cur != s.Parent {
				t.Fatalf("iter %d: SeD %s under %s, plan wants %s", iter, s.Name, cur, s.Parent)
			}
		}
	}
}
