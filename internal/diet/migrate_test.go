package diet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cori"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// hasChild reports whether the named agent's subtree lists the SeD directly.
func hasChild(a *Agent, sed string) bool {
	for _, c := range a.Children() {
		if c.Name == sed {
			return true
		}
	}
	return false
}

// TestApplyPlanMigratesSeDWithModels walks the whole live-migration path: a
// trained SeD moves from one LA to another via MA.ApplyPlan, keeps solving,
// keeps its CoRI model (no retraining), re-advertises the planned power, and
// its registry contribution arrives at the new parent without waiting for a
// gossip round.
func TestApplyPlanMigratesSeDWithModels(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-mig", LAs: []string{"LA-mig-a", "LA-mig-b"},
		SeDs: []SeDSpec{{
			Name: "SeD-mig", Parent: "LA-mig-a", Cluster: "grillon", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", time.Millisecond, nil)},
		}},
		Local: true,
	})
	sed := d.SeDs[0]
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	// Train the SeD with varied work sizes, then gossip its models up.
	for i := 0; i < 4; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := client.Call(p, WithWork(float64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	d.LAs[0].GossipRound()
	d.MA.GossipRound()
	modelBefore, ok := sed.Monitor().Model("double")
	if !ok || modelBefore.Samples != 4 {
		t.Fatalf("training failed: %+v ok=%v", modelBefore, ok)
	}

	res := d.MA.ApplyPlan([]Migration{{SeD: "SeD-mig", NewParent: "LA-mig-b", NewPower: 99}})
	if len(res) != 1 || res[0].Err != "" || !res[0].Moved() {
		t.Fatalf("migration failed: %+v", res)
	}
	if res[0].OldParent != "LA-mig-a" {
		t.Fatalf("OldParent = %q, want LA-mig-a", res[0].OldParent)
	}

	// The live topology moved the SeD.
	if hasChild(d.LAs[0], "SeD-mig") {
		t.Fatal("old parent still lists the migrated SeD")
	}
	if !hasChild(d.LAs[1], "SeD-mig") {
		t.Fatal("new parent does not list the migrated SeD")
	}
	if got := sed.Stats().Parent; got != "LA-mig-b" {
		t.Fatalf("SeD.Stats().Parent = %q, want LA-mig-b", got)
	}

	// The planned power is what estimates now advertise.
	est := sed.Estimate("double").Est
	if est.PowerGFlops != 99 {
		t.Fatalf("advertised power %g after migration, want 99", est.PowerGFlops)
	}
	// The model traveled: the first post-move estimate still carries the full
	// trained forecast — no cold restart.
	if !est.HasForecast || est.ForecastSamples != 4 {
		t.Fatalf("post-move estimate lost the model: %+v", est)
	}
	if est.ForecastConfidence < scheduler.MinConfidence {
		t.Fatalf("post-move forecast confidence %g below the trust floor", est.ForecastConfidence)
	}
	modelAfter, _ := sed.Monitor().Model("double")
	if modelAfter.Samples != modelBefore.Samples || modelAfter.Warm {
		t.Fatalf("migration disturbed the monitor: before %+v after %+v", modelBefore, modelAfter)
	}

	// The registry contribution was forwarded with the move — the new parent
	// knows the mover's models before any gossip round of its own.
	if _, ok := d.LAs[1].Registry().SourceModel("SeD-mig", "double"); !ok {
		t.Fatal("new parent's registry lacks the migrated SeD's contribution")
	}

	// The hierarchy still solves through the new placement.
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 21, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatalf("post-migration solve failed: %v", err)
	}
	if v, _ := p.ScalarInt(1); v != 42 {
		t.Fatalf("post-migration solve returned %d, want 42", v)
	}
}

// TestApplyPlanPowerOnlyRefresh checks the fast path: a migration whose
// target parent equals the current one only refreshes the advertised power.
func TestApplyPlanPowerOnlyRefresh(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-pow", LAs: []string{"LA-pow"},
		SeDs: []SeDSpec{{
			Name: "SeD-pow", Parent: "LA-pow", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", 0, nil)},
		}},
		Local: true,
	})
	res := d.MA.ApplyPlan([]Migration{{SeD: "SeD-pow", NewParent: "LA-pow", NewPower: 77}})
	if len(res) != 1 || res[0].Err != "" || res[0].Moved() || !res[0].PowerChanged {
		t.Fatalf("power refresh misreported: %+v", res)
	}
	if got := d.SeDs[0].Stats().Power; got != 77 {
		t.Fatalf("power = %g, want 77", got)
	}
	if got := d.SeDs[0].Stats().Parent; got != "LA-pow" {
		t.Fatalf("parent changed on a power-only refresh: %q", got)
	}
	// Re-applying the same power is a reported no-op — the fixed point a
	// steady-state replan pass must recognize to stay quiet.
	res = d.MA.ApplyPlan([]Migration{{SeD: "SeD-pow", NewParent: "LA-pow", NewPower: 77}})
	if len(res) != 1 || res[0].Err != "" || res[0].PowerChanged {
		t.Fatalf("repeat refresh must report no power change: %+v", res)
	}
}

// TestApplyPlanReportsFailures checks per-migration error isolation: unknown
// SeDs and unknown target agents fail their own migration without blocking
// the rest of the plan.
func TestApplyPlanReportsFailures(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-err", LAs: []string{"LA-err-a", "LA-err-b"},
		SeDs: []SeDSpec{{
			Name: "SeD-err", Parent: "LA-err-a", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", 0, nil)},
		}},
		Local: true,
	})
	res := d.MA.ApplyPlan([]Migration{
		{SeD: "SeD-ghost", NewParent: "LA-err-b"},
		{SeD: "SeD-err", NewParent: "LA-ghost"},
		{SeD: "SeD-err", NewParent: "LA-err-b"},
	})
	if len(res) != 3 {
		t.Fatalf("want 3 results, got %d", len(res))
	}
	if res[0].Err == "" || res[1].Err == "" {
		t.Fatalf("ghost migrations must fail: %+v", res[:2])
	}
	if res[2].Err != "" || !res[2].Moved() {
		t.Fatalf("valid migration must survive earlier failures: %+v", res[2])
	}
	if !hasChild(d.LAs[1], "SeD-err") {
		t.Fatal("valid migration did not land")
	}
}

// TestReplanRidesHeartbeat checks the live loop end to end: an MA with a
// heartbeat-driven replanner migrates a SeD without anyone calling the
// protocol explicitly.
func TestReplanRidesHeartbeat(t *testing.T) {
	rpc.ResetLocal()
	// Deploy the hierarchy manually so the MA can carry the replanner config.
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-hb-seed", LAs: []string{}, SeDs: nil, Local: true,
	})
	ma, err := NewAgent(AgentConfig{
		Name: "MA-hb", Kind: MasterAgent, Naming: d.NamingAddr, Local: true,
		HeartbeatInterval: 2 * time.Millisecond,
		ReplanInterval:    time.Millisecond,
		Replanner: func(live TopologyNode, _ *cori.Registry) []Migration {
			// Steady-state plan: SeD-hb belongs under LA-hb-b at power 88.
			return []Migration{{SeD: "SeD-hb", NewParent: "LA-hb-b", NewPower: 88}}
		},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Start(); err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	for _, la := range []string{"LA-hb-a", "LA-hb-b"} {
		ag, err := NewAgent(AgentConfig{
			Name: la, Kind: LocalAgent, Parent: "MA-hb", Naming: d.NamingAddr, Local: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Start(); err != nil {
			t.Fatal(err)
		}
		defer ag.Close()
	}
	sed, err := NewSeD(SeDConfig{
		Name: "SeD-hb", Parent: "LA-hb-a", Naming: d.NamingAddr, PowerGFlops: 50, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := sleepService("double", 0, nil)
	if err := sed.AddService(svc.Desc, svc.Solve); err != nil {
		t.Fatal(err)
	}
	if err := sed.Start(); err != nil {
		t.Fatal(err)
	}
	defer sed.Close()

	replans := ma.metrics.replans.With(ma.cfg.Name)
	migrated := ma.metrics.migrations.With(ma.cfg.Name)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// The SeD commits to its new parent inside the Reparent call; the MA
		// books the pass only once that call has returned, so wait for both.
		if sed.Stats().Parent == "LA-hb-b" && sed.Stats().Power == 88 && replans.Value() > 0 && migrated.Value() > 0 {
			if migrated.Value() != 1 {
				t.Fatalf("replan stats off: replans=%v migrated=%v", replans.Value(), migrated.Value())
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("heartbeat-driven replan never migrated the SeD (parent %q, power %g, replans=%v migrated=%v)",
		sed.Stats().Parent, sed.Stats().Power, replans.Value(), migrated.Value())
}

// TestMigrationChaosConcurrentSolves is the race/chaos test the migration
// protocol must survive: clients hammer the hierarchy with solves while the
// MA flips a SeD between two LAs and every agent runs gossip and heartbeat
// sweeps concurrently. Every submitted solve must execute exactly once —
// nothing lost in a drain, nothing double-granted after a reparent. Run
// under -race this also guards the protocol's locking.
func TestMigrationChaosConcurrentSolves(t *testing.T) {
	rpc.ResetLocal()
	var executed atomic.Int64
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-chaos", LAs: []string{"LA-chaos-a", "LA-chaos-b"},
		SeDs: []SeDSpec{
			{Name: "SeD-chaos-mover", Parent: "LA-chaos-a", Cluster: "grillon", PowerGFlops: 50, Capacity: 2,
				Services: []ServiceSpec{sleepService("double", 200*time.Microsecond, &executed)}},
			{Name: "SeD-chaos-anchor", Parent: "LA-chaos-b", Cluster: "grillon", PowerGFlops: 40,
				Services: []ServiceSpec{sleepService("double", 200*time.Microsecond, &executed)}},
		},
		Local: true,
	})
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	const (
		solvers       = 8
		solvesEach    = 25
		migrations    = 20
		gossipSpinner = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, solvers*solvesEach)

	// Solver goroutines: every Call must succeed and double its input.
	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < solvesEach; i++ {
				p, _ := NewProfile("double", 0, 0, 1)
				in := int64(g*1000 + i)
				p.SetScalarInt(0, in, Volatile)
				if _, err := client.Call(p, WithWork(float64(500+i))); err != nil {
					errs <- fmt.Errorf("solver %d call %d: %w", g, i, err)
					return
				}
				if out, _ := p.ScalarInt(1); out != 2*in {
					errs <- fmt.Errorf("solver %d call %d: got %d want %d", g, i, out, 2*in)
					return
				}
			}
		}(g)
	}

	// Migration goroutine: flip the mover between the LAs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		targets := [2]string{"LA-chaos-b", "LA-chaos-a"}
		for i := 0; i < migrations; i++ {
			res := d.MA.ApplyPlan([]Migration{{
				SeD: "SeD-chaos-mover", NewParent: targets[i%2], NewPower: float64(50 + i),
			}})
			for _, r := range res {
				if r.Err != "" {
					errs <- fmt.Errorf("migration %d: %s (LA-a children %v, LA-b children %v, sed parent %q)",
						i, r.Err, d.LAs[0].Children(), d.LAs[1].Children(), d.SeDs[0].Stats().Parent)
					return
				}
			}
		}
	}()

	// Gossip/heartbeat chaos across every agent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < gossipSpinner; i++ {
			d.MA.SweepChildren()
			d.MA.GossipRound()
			for _, la := range d.LAs {
				la.SweepChildren()
				la.GossipRound()
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	want := int64(solvers * solvesEach)
	if got := executed.Load(); got != want {
		t.Fatalf("executed %d solves, want exactly %d (lost or double-executed under migration)", got, want)
	}
	// The mover really moved: the last flip (i=19) targeted LA-chaos-a, and
	// it must still serve solves there.
	if got := d.SeDs[0].Stats().Parent; got != "LA-chaos-a" {
		t.Fatalf("mover finished under %q, want LA-chaos-a", got)
	}
	p, _ := NewProfile("double", 0, 0, 1)
	p.SetScalarInt(0, 7, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatalf("post-chaos solve failed: %v", err)
	}
}

// TestSweepHealsLostMigrationHandoff covers the dropped-reply edge of the
// protocol: the SeD reparents successfully but the old parent never sees the
// MigrateChild completion (simulated by reparenting behind its back), so it
// still lists the child. The next heartbeat sweep probes the SeD's Stats,
// notices it answers to another parent, and drops it — the dual-parent
// window closes without any eviction timeout.
func TestSweepHealsLostMigrationHandoff(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-heal", LAs: []string{"LA-heal-a", "LA-heal-b"},
		SeDs: []SeDSpec{{
			Name: "SeD-heal", Parent: "LA-heal-a", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", 0, nil)},
		}},
		Local: true, Metrics: metrics.NewRegistry(),
	})
	// Reparent behind the old parent's back — as if its MigrateChild call
	// lost the reply after the SeD had re-registered.
	if err := d.SeDs[0].Reparent(ReparentRequest{
		Parent: "LA-heal-b", ParentAddr: d.LAs[1].Addr(),
	}); err != nil {
		t.Fatal(err)
	}
	if !hasChild(d.LAs[0], "SeD-heal") || !hasChild(d.LAs[1], "SeD-heal") {
		t.Fatal("precondition: both parents should list the child before the sweep")
	}
	// A parent mismatch gets the missed-beat grace (a reparent may be in
	// flight), so the first sweep must not drop the child yet.
	d.LAs[0].SweepChildren()
	if !hasChild(d.LAs[0], "SeD-heal") {
		t.Fatal("one mismatched probe must not drop the child (reparent grace)")
	}
	for i := 0; i < 3; i++ { // default MaxMissed
		d.LAs[0].SweepChildren()
	}
	if hasChild(d.LAs[0], "SeD-heal") {
		t.Fatal("persistent parent mismatch must drop the child")
	}
	if !hasChild(d.LAs[1], "SeD-heal") {
		t.Fatal("the true parent must keep the child")
	}
	if evicted(d.LAs[0]) != 0 {
		t.Fatal("healing a handoff is not an eviction")
	}
}

// TestNewAgentRejectsDanglingReplanConfig guards the config contract: a
// replan interval without the heartbeat that drives it (or a replanner to
// run) would silently never fire.
func TestNewAgentRejectsDanglingReplanConfig(t *testing.T) {
	if _, err := NewAgent(AgentConfig{
		Name: "MA-cfg", Kind: MasterAgent, ReplanInterval: time.Minute,
		Replanner: func(TopologyNode, *cori.Registry) []Migration { return nil },
	}); err == nil {
		t.Fatal("ReplanInterval without HeartbeatInterval must be rejected")
	}
	if _, err := NewAgent(AgentConfig{
		Name: "MA-cfg", Kind: MasterAgent, ReplanInterval: time.Minute,
		HeartbeatInterval: time.Second,
	}); err == nil {
		t.Fatal("ReplanInterval without a Replanner must be rejected")
	}
}

// TestReparentDrainWaitsForRunningSolve proves the drain semantics directly:
// a Reparent issued while a slow solve is running completes only after the
// solve does, and the queued work behind it is not lost.
func TestReparentDrainWaitsForRunningSolve(t *testing.T) {
	rpc.ResetLocal()
	var executed atomic.Int64
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-drain", LAs: []string{"LA-drain-a", "LA-drain-b"},
		SeDs: []SeDSpec{{
			Name: "SeD-drain", Parent: "LA-drain-a", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", 60*time.Millisecond, &executed)},
		}},
		Local: true,
	})
	sed := d.SeDs[0]

	// Start a slow solve directly on the SeD, plus one queued behind it.
	solveDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			p, _ := NewProfile("double", 0, 0, 1)
			p.SetScalarInt(0, int64(i), Volatile)
			_, err := sed.Solve(p)
			solveDone <- err
		}(i)
	}
	// Wait until the first solve is actually running.
	deadline := time.Now().Add(2 * time.Second)
	for sed.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	res := d.MA.ApplyPlan([]Migration{{SeD: "SeD-drain", NewParent: "LA-drain-b"}})
	if len(res) != 1 || res[0].Err != "" {
		t.Fatalf("migration failed: %+v", res)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("reparent returned in %v — it cannot have drained the 60ms solve", elapsed)
	}
	for i := 0; i < 2; i++ {
		if err := <-solveDone; err != nil {
			t.Fatalf("solve across migration failed: %v", err)
		}
	}
	if got := executed.Load(); got != 2 {
		t.Fatalf("executed %d solves, want 2", got)
	}
	if got := sed.Stats().Parent; got != "LA-drain-b" {
		t.Fatalf("parent = %q, want LA-drain-b", got)
	}
}
