// Zoomsim runs the paper's two-phase campaign end to end at laptop scale,
// through the real middleware — as a workflow: the Figure 4 idea with live
// services. A low-resolution ramsesZoom1 survey finds the dark-matter halos,
// then every halo is re-simulated at higher resolution with ramsesZoom2, and
// a local report stage aggregates the GALICS tarballs. The whole DAG goes
// through workflow.DietRunner, so each stage is a diet.Client.Call priced
// from the SeDs' CoRI forecasts and launched critical-path-first; the
// campaign runs twice to show the second pass pricing stages from measured
// models instead of advertised powers. Workflow spans land on a logsvc bus
// and diet_workflow_* metrics in a registry, like a dietmon-attached run.
//
//	go run ./examples/zoomsim
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/ramses"
	"repro/internal/services"
	"repro/internal/workflow"
)

// nZoom is the campaign's fixed number of zoom re-simulations; the survey
// usually finds more halos, and the zoom stages pick round-robin among them.
const nZoom = 4

// buildCampaign returns the campaign DAG and its per-node DIET bindings:
// heterogeneous services per stage, plus a local (non-DIET) report node.
func buildCampaign(cfg ramses.Config) (*workflow.DAG, map[string]workflow.TaskSpec, error) {
	dag := workflow.New("zoomCampaign")
	specs := make(map[string]workflow.TaskSpec)

	if err := dag.Add("survey", "ramsesZoom1", nil, nil); err != nil {
		return nil, nil, err
	}
	specs["survey"] = workflow.TaskSpec{
		Profile: func(*workflow.TaskContext) (*diet.Profile, error) {
			return services.NewZoom1Profile(cfg)
		},
		Consume: func(ctx *workflow.TaskContext, p *diet.Profile, _ *diet.CallInfo) error {
			catalog, err := services.Zoom1Result(p)
			if err != nil {
				return err
			}
			if len(catalog.Halos) == 0 {
				return fmt.Errorf("survey found no halos to zoom into")
			}
			ctx.SetOutput(catalog)
			return nil
		},
	}

	var zoomIDs []string
	for i := 0; i < nZoom; i++ {
		i := i
		id := fmt.Sprintf("zoom_%d", i)
		zoomIDs = append(zoomIDs, id)
		if err := dag.Add(id, "ramsesZoom2", []string{"survey"}, nil); err != nil {
			return nil, nil, err
		}
		specs[id] = workflow.TaskSpec{
			Profile: func(ctx *workflow.TaskContext) (*diet.Profile, error) {
				v, _ := ctx.DepOutput("survey")
				catalog := v.(*halo.Catalog)
				h := catalog.Halos[i%len(catalog.Halos)]
				return services.NewZoom2Profile(cfg,
					int(h.Pos[0]*float64(cfg.NPart)),
					int(h.Pos[1]*float64(cfg.NPart)),
					int(h.Pos[2]*float64(cfg.NPart)), 2)
			},
			Consume: func(ctx *workflow.TaskContext, p *diet.Profile, info *diet.CallInfo) error {
				name, tarball, err := services.Zoom2Result(p)
				if err != nil {
					return err
				}
				ctx.SetOutput(fmt.Sprintf("%s (%d bytes) on %s", name, len(tarball), info.Server))
				return nil
			},
		}
	}

	// The report stage is local: no DIET call, just aggregation — the runner
	// mixes bound actions and remote specs in one DAG.
	if err := dag.Add("report", "localReport", zoomIDs, func(ctx *workflow.TaskContext) error {
		var lines []string
		for _, id := range zoomIDs {
			if v, ok := ctx.DepOutput(id); ok {
				lines = append(lines, fmt.Sprintf("  %s: %v", id, v))
			}
		}
		sort.Strings(lines)
		ctx.SetOutput(lines)
		for _, l := range lines {
			fmt.Println(l)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return dag, specs, nil
}

func main() {
	base, err := os.MkdirTemp("", "zoomsim-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	bus := logsvc.New(8192)
	reg := metrics.NewRegistry()

	// Three SeDs on two "clusters" with different processing powers, a
	// miniature of the paper's heterogeneous 11-SeD deployment.
	var seds []diet.SeDSpec
	for _, s := range []struct {
		name    string
		cluster string
		power   float64
	}{
		{"Nancy1", "nancy", 63.8},
		{"Toulouse1", "toulouse", 44.8},
		{"Lyon1", "lyon", 53.8},
	} {
		seds = append(seds, diet.SeDSpec{
			Name: s.name, Parent: "LA-" + s.cluster, Cluster: s.cluster,
			Capacity: 1, PowerGFlops: s.power,
			Services: []diet.ServiceSpec{
				{Desc: services.Zoom1Desc(), Solve: services.SolveZoom1(base)},
				{Desc: services.Zoom2Desc(), Solve: services.SolveZoom2(base)},
			},
		})
	}
	deployment, err := diet.Deploy(diet.DeploymentSpec{
		MAName:  "MA1",
		LAs:     []string{"LA-nancy", "LA-toulouse", "LA-lyon"},
		SeDs:    seds,
		Local:   true,
		Events:  bus,
		Metrics: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Close()

	client, err := deployment.Client()
	if err != nil {
		log.Fatal(err)
	}

	cfg := ramses.DefaultConfig()
	cfg.NPart = 16
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 6
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}

	runner := &workflow.DietRunner{
		Client:      client,
		MaxParallel: 3,
		// Stage work hints for pricing and the WithWork scheduler hint: the
		// zooms are the heavy stages, as in the paper's campaign.
		ServiceWork: map[string]float64{"ramsesZoom1": 400, "ramsesZoom2": 2500},
		Events:      bus,
		Metrics:     reg,
		Retries:     1,
	}

	for campaign := 1; campaign <= 2; campaign++ {
		dag, specs, err := buildCampaign(cfg)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rep, err := runner.Run(dag, specs)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Err != nil {
			log.Fatalf("campaign %d: %v", campaign, rep.Err)
		}
		fmt.Printf("campaign %d (%s): 1 survey + %d zooms in %v\n",
			campaign, rep.RunID, nZoom, time.Since(start).Round(time.Millisecond))
		perServer := map[string]int{}
		for id, info := range rep.Calls {
			if id != "survey" {
				perServer[info.Server]++
			}
		}
		var names []string
		for s := range perServer {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			fmt.Printf("  %-10s served %d zoom requests\n", s, perServer[s])
		}
		fmt.Printf("  forecast-priced services: %d of %d (critical-path weights: survey %.2fs, report %.2fs)\n\n",
			rep.ForecastPricedCount(), len(rep.ForecastPriced),
			rep.Priorities["survey"], rep.Priorities["report"])
	}

	counts := bus.CountsByKind()
	fmt.Printf("logsvc bus: %d workflow spans among %d solve spans — same bus dietmon tails\n",
		counts[logsvc.KindWorkflow], counts[logsvc.KindSolve])
}
