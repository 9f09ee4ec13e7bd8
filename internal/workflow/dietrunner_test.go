package workflow

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/diet"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// figure4Services lists every service RamsesZoomDocument references, with a
// tiny heterogeneous compute cost so the SeD monitors observe distinguishable
// durations.
var figure4Services = map[string]time.Duration{
	"retrieveParameters": 200 * time.Microsecond,
	"grafic1":            time.Millisecond,
	"rollWhiteNoise":     500 * time.Microsecond,
	"grafic2":            time.Millisecond,
	"setupMPI":           200 * time.Microsecond,
	"ramses3d":           5 * time.Millisecond,
	"stopMPI":            200 * time.Microsecond,
	"haloMaker":          2 * time.Millisecond,
	"treeMaker":          time.Millisecond,
	"galaxyMaker":        time.Millisecond,
	"sendResults":        200 * time.Microsecond,
}

// stubDesc describes a one-IN/one-OUT text service.
func stubDesc(t *testing.T, svc string) *diet.ProfileDesc {
	t.Helper()
	d, err := diet.NewProfileDesc(svc, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Set(0, diet.Text, diet.Char)
	d.Set(1, diet.Text, diet.Char)
	return d
}

// deployFigure4 boots an in-process platform whose SeDs all host every
// Figure 4 service as a stub solve: echo "out:<service>" after the service's
// canonical delay.
func deployFigure4(t *testing.T, events diet.EventSink, reg *metrics.Registry) (*diet.Deployment, *diet.Client) {
	t.Helper()
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	mkServices := func() []diet.ServiceSpec {
		var specs []diet.ServiceSpec
		names := make([]string, 0, len(figure4Services))
		for svc := range figure4Services {
			names = append(names, svc)
		}
		sort.Strings(names)
		for _, svc := range names {
			svc, delay := svc, figure4Services[svc]
			specs = append(specs, diet.ServiceSpec{
				Desc: stubDesc(t, svc),
				Solve: func(p *diet.Profile) error {
					time.Sleep(delay)
					return p.SetString(1, "out:"+svc, diet.Volatile)
				},
			})
		}
		return specs
	}
	var seds []diet.SeDSpec
	for _, s := range []struct {
		name  string
		power float64
	}{{"Nancy1", 63.8}, {"Toulouse1", 44.8}, {"Lyon1", 53.8}} {
		seds = append(seds, diet.SeDSpec{
			Name: s.name, Parent: "LA1", Cluster: "g5k",
			Capacity: 1, PowerGFlops: s.power, Services: mkServices(),
		})
	}
	dep, err := diet.Deploy(diet.DeploymentSpec{
		MAName: "MA1", LAs: []string{"LA1"}, SeDs: seds,
		Local: true, Events: events, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	client, err := dep.Client()
	if err != nil {
		t.Fatal(err)
	}
	return dep, client
}

// ramsesSpecs builds a TaskSpec for every node of the document: the profile
// carries the concatenated dependency outputs IN, the solved OUT string
// becomes the node's output.
func ramsesSpecs(t *testing.T, doc *Document) map[string]TaskSpec {
	t.Helper()
	specs := make(map[string]TaskSpec, len(doc.Nodes))
	for _, n := range doc.Nodes {
		svc := n.Service
		specs[n.ID] = TaskSpec{
			Profile: func(ctx *TaskContext) (*diet.Profile, error) {
				var ins []string
				for dep := range ctx.deps {
					v, _ := ctx.DepOutput(dep)
					s, ok := v.(string)
					if !ok {
						return nil, fmt.Errorf("dep %q of %q produced %T, want string", dep, ctx.ID, v)
					}
					ins = append(ins, s)
				}
				sort.Strings(ins)
				p, err := diet.NewProfile(svc, 0, 0, 1)
				if err != nil {
					return nil, err
				}
				if err := p.SetString(0, strings.Join(ins, "+"), diet.Volatile); err != nil {
					return nil, err
				}
				return p, nil
			},
			Consume: func(ctx *TaskContext, p *diet.Profile, info *diet.CallInfo) error {
				ctx.SetOutput(string(p.Args[1].Data))
				return nil
			},
		}
	}
	return specs
}

// TestDietRunnerWorkflowRamsesZoomLive runs the paper's Figure 4 DAG
// end-to-end through diet.Client.Call twice: the first campaign trains every
// chosen SeD's CoRI monitor, the second must price at least one stage from a
// trusted model (the forecast-priced dispatch A11 mirrors) and thread a
// workflow span per node onto the bus.
func TestDietRunnerWorkflowRamsesZoomLive(t *testing.T) {
	bus := logsvc.New(4096)
	reg := metrics.NewRegistry()
	_, client := deployFigure4(t, bus, reg)

	doc := RamsesZoomDocument(2, 3)
	dag, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	runner := &DietRunner{
		Client:      client,
		MaxParallel: 3,
		ServiceWork: RamsesStageWork(),
		Events:      bus,
		Metrics:     reg,
		Retries:     1,
	}

	rep1, err := runner.Run(dag, ramsesSpecs(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Err != nil {
		t.Fatalf("first campaign failed: %v", rep1.Err)
	}
	if got := rep1.ForecastPricedCount(); got != 0 {
		t.Fatalf("cold platform forecast-priced %d services, want 0", got)
	}

	rep2, err := runner.Run(dag, ramsesSpecs(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Err != nil {
		t.Fatalf("second campaign failed: %v", rep2.Err)
	}
	if len(rep2.Results) != dag.Size() {
		t.Fatalf("results for %d nodes, want %d", len(rep2.Results), dag.Size())
	}
	for id, res := range rep2.Results {
		if res.Err != nil || res.Skipped {
			t.Fatalf("node %s: err=%v skipped=%v", id, res.Err, res.Skipped)
		}
	}
	if len(rep2.Calls) != dag.Size() {
		t.Fatalf("%d DIET calls recorded, want one per node (%d)", len(rep2.Calls), dag.Size())
	}
	if got := rep2.ForecastPricedCount(); got == 0 {
		t.Fatal("trained platform priced no stage from a CoRI model")
	}

	// Critical-path weights must decrease downstream and the MPI run must
	// dominate the parallel HaloMaker branches.
	pr := rep2.Priorities
	if !(pr["params"] > pr["ramses3d"] && pr["ramses3d"] > pr["treemaker"] && pr["treemaker"] > pr["send_results"]) {
		t.Fatalf("chain priorities not monotone downstream: %v", pr)
	}
	if pr["ramses3d"] <= pr["halomaker_s1"] {
		t.Fatalf("ramses3d priority %.1f not above halomaker_s1 %.1f", pr["ramses3d"], pr["halomaker_s1"])
	}

	// One workflow span per node per campaign, plus one per whole campaign.
	counts := bus.CountsByKind()
	if want := 2 * (dag.Size() + 1); counts[logsvc.KindWorkflow] != want {
		t.Fatalf("%d workflow spans on the bus, want %d", counts[logsvc.KindWorkflow], want)
	}
	// The runner's metric families are rendered for dietmon.
	rendered := reg.String()
	for _, fam := range []string{"diet_workflow_runs_total", "diet_workflow_nodes_total",
		"diet_workflow_forecast_priced_total", "diet_workflow_makespan_seconds"} {
		if !strings.Contains(rendered, fam) {
			t.Fatalf("metrics output missing %s:\n%s", fam, rendered)
		}
	}
}

// TestDietRunnerWorkflowFailureSkipsDependents: a node whose service no SeD
// offers fails its call after the failover walk; its dependents skip while
// the independent branch completes — the requeue path ends in a clean
// per-node error, not a wedged campaign.
func TestDietRunnerWorkflowFailureSkipsDependents(t *testing.T) {
	bus := logsvc.New(256)
	_, client := deployFigure4(t, bus, nil)

	dag := New("partial")
	if err := dag.Add("a", "grafic1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := dag.Add("b", "noSuchService", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := dag.Add("c", "treeMaker", []string{"b"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := dag.Add("side", "galaxyMaker", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
	doc := dag.Document()
	rep, err := (&DietRunner{Client: client, ServiceWork: RamsesStageWork()}).Run(dag, ramsesSpecs(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), `"b"`) {
		t.Fatalf("Report.Err = %v, want node b failure", rep.Err)
	}
	if res := rep.Results["b"]; res.Err == nil {
		t.Fatal("node b should fail: no SeD offers its service")
	}
	if !rep.Results["c"].Skipped {
		t.Fatal("node c should skip after b failed")
	}
	if res := rep.Results["side"]; res.Err != nil || res.Skipped {
		t.Fatalf("independent branch should complete: %+v", res)
	}
}
