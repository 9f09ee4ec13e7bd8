// Package repro holds the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§6), one Benchmark per artifact:
//
//	BenchmarkFig2DensitySequence  — Figure 2: projected density time sequence
//	BenchmarkFig3ZoomResimulation — Figure 3: zoom re-simulation of a halo
//	BenchmarkFig4Workflow         — Figure 4: the full service workflow
//	BenchmarkFig5Distribution     — Figure 5: request distribution + per-SeD hours
//	BenchmarkFig6FindLatency      — Figure 6: finding time and latency series
//	BenchmarkTable1Totals         — §6.2 totals: durations, baseline, overhead
//	BenchmarkAblationScheduler    — A1: plug-in scheduler vs equal distribution
//	BenchmarkAblationWorkflow     — A2: workflow engine vs hard-coded pipeline
//	BenchmarkAblationBatch        — A3: OAR-style reservations vs direct fork
//	BenchmarkAblationForecast     — A5: CoRI forecasting vs static scheduling
//
// Figures 5/6 and the totals replay the full Grid'5000 campaign in the
// discrete-event simulator; headline values are exported as benchmark
// metrics, and `go test -bench Fig5 -v` additionally prints the same rows
// the paper plots. Run `go run ./cmd/experiment` for the stand-alone
// report.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/galics"
	"repro/internal/halo"
	"repro/internal/mergertree"
	"repro/internal/ramses"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/workflow"
)

// benchConfig is the laptop-scale simulation configuration the physics
// benchmarks share.
func benchConfig() ramses.Config {
	cfg := ramses.DefaultConfig()
	cfg.NPart = 16
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.3, 0.55, 0.8, 1.0} // the Figure 2 time sequence
	cfg.StepsPerOutput = 4
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
	return cfg
}

// BenchmarkFig2DensitySequence regenerates Figure 2: a periodic-box run with
// snapshots at increasing expansion factors and the projected density field
// of each. The reported metric is the density contrast growth across the
// sequence — the quantity the figure visualises.
func BenchmarkFig2DensitySequence(b *testing.B) {
	cfg := benchConfig()
	var contrastFirst, contrastLast float64
	for i := 0; i < b.N; i++ {
		res, err := ramses.Run(cfg, "")
		if err != nil {
			b.Fatal(err)
		}
		for j, out := range res.Outputs {
			m, err := ramses.ProjectedDensity(out.Snap, cfg.Cosmo, 32, 2)
			if err != nil {
				b.Fatal(err)
			}
			var max float64
			for _, v := range m {
				if v > max {
					max = v
				}
			}
			if j == 0 {
				contrastFirst = max
			}
			contrastLast = max
			if i == 0 {
				b.Logf("a=%.2f  max surface overdensity %.1f", out.A, max)
			}
		}
	}
	b.ReportMetric(contrastFirst, "contrast_first")
	b.ReportMetric(contrastLast, "contrast_last")
	if contrastLast <= contrastFirst {
		b.Fatalf("density contrast must grow through the sequence: %g -> %g", contrastFirst, contrastLast)
	}
}

// BenchmarkFig3ZoomResimulation regenerates Figure 3: a supercluster region
// from the survey run re-simulated with nested boxes at higher resolution.
// Metrics report the resolution gain (particle-mass ratio) in the region.
func BenchmarkFig3ZoomResimulation(b *testing.B) {
	cfg := benchConfig()
	cfg.Aout = []float64{0.5, 1.0}
	var massRatio float64
	for i := 0; i < b.N; i++ {
		p1, err := ramses.Phase1(cfg, "")
		if err != nil {
			b.Fatal(err)
		}
		center := [3]float64{0.5, 0.5, 0.5}
		if len(p1.Catalog.Halos) > 0 {
			center = p1.Catalog.Halos[0].Pos
		}
		p2, err := ramses.Phase2(cfg, center, 2, "")
		if err != nil {
			b.Fatal(err)
		}
		// Resolution contrast: coarsest vs finest particle mass in the box.
		var mMin, mMax float64
		for _, p := range p2.Run.FinalSnapshot().Parts {
			if mMin == 0 || p.Mass < mMin {
				mMin = p.Mass
			}
			if p.Mass > mMax {
				mMax = p.Mass
			}
		}
		massRatio = mMax / mMin
	}
	b.ReportMetric(massRatio, "mass_ratio")
	if massRatio < 7.9 || massRatio > 8.1 {
		b.Fatalf("one nested level must refine particle mass 8x, got %.2f", massRatio)
	}
}

// BenchmarkFig4Workflow regenerates Figure 4: the whole simulation pipeline
// — GRAFIC, RAMSES3d, HaloMaker per snapshot, TreeMaker, GalaxyMaker —
// executed as the DAG of the paper's workflow document.
func BenchmarkFig4Workflow(b *testing.B) {
	cfg := benchConfig()
	var galaxies int
	for i := 0; i < b.N; i++ {
		doc := workflow.RamsesZoomDocument(0, len(cfg.Aout))
		dag, err := workflow.FromDocument(doc)
		if err != nil {
			b.Fatal(err)
		}
		var result *ramses.Result
		catalogs := make([]*halo.Catalog, len(cfg.Aout))
		var forest *mergertree.Forest
		var gals *galics.Catalog
		noop := func(*workflow.TaskContext) error { return nil }
		dag.Bind("params", noop)
		dag.Bind("grafic1_first", noop)
		dag.Bind("rollwhitenoise", noop)
		dag.Bind("grafic1_second", noop)
		dag.Bind("mpi_setup", noop)
		dag.Bind("ramses3d", func(*workflow.TaskContext) error {
			var err error
			result, err = ramses.Run(cfg, "")
			return err
		})
		dag.Bind("mpi_stop", noop)
		for s := range cfg.Aout {
			s := s
			dag.Bind(fmt.Sprintf("halomaker_s%d", s+1), func(*workflow.TaskContext) error {
				snap := result.Outputs[s].Snap
				var err error
				catalogs[s], err = halo.FindHalos(snap.Parts, snap.A, snap.Box, cfg.FoF)
				return err
			})
		}
		dag.Bind("treemaker", func(*workflow.TaskContext) error {
			var err error
			forest, err = mergertree.Build(catalogs, mergertree.DefaultParams())
			return err
		})
		dag.Bind("galaxymaker", func(*workflow.TaskContext) error {
			var err error
			gals, err = galics.Run(forest, cfg.Cosmo, galics.DefaultParams())
			return err
		})
		dag.Bind("send_results", noop)
		if rep := dag.Execute(4); rep.Err != nil {
			b.Fatal(rep.Err)
		}
		galaxies = len(gals.Galaxies)
	}
	b.ReportMetric(float64(galaxies), "galaxies")
}

// paperExperiment runs the full-scale campaign in the DES.
func paperExperiment(b *testing.B, policy scheduler.Policy) *simgrid.ExperimentResult {
	b.Helper()
	res, err := simgrid.RunExperiment(simgrid.DefaultExperiment(policy))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig5Distribution regenerates Figure 5: the Gantt distribution of
// the 100 sub-simulations over the 11 SeDs and the per-SeD total execution
// times, with the paper's Toulouse-vs-Nancy imbalance as metrics.
func BenchmarkFig5Distribution(b *testing.B) {
	var res *simgrid.ExperimentResult
	for i := 0; i < b.N; i++ {
		res = paperExperiment(b, scheduler.NewRoundRobin())
	}
	busy := make(map[string]float64)
	counts := make(map[string]int)
	for _, s := range res.PerSeD {
		busy[s.Name], counts[s.Name] = s.BusyHours, len(s.Requests)
		if b.N > 0 {
			b.Logf("%-11s %2d requests  %6.2f h", s.Name, len(s.Requests), s.BusyHours)
		}
	}
	b.ReportMetric(busy["Toulouse1"], "toulouse_hours") // paper ≈ 15
	b.ReportMetric(busy["Nancy1"], "nancy_hours")       // paper ≈ 10.5
	b.ReportMetric(float64(counts["Lille1"]), "max_requests_per_sed")
}

// BenchmarkFig6FindLatency regenerates Figure 6: per-request finding time
// (flat, ≈ 49.8 ms) and latency (queue-driven growth to ~10⁷ ms).
func BenchmarkFig6FindLatency(b *testing.B) {
	var res *simgrid.ExperimentResult
	for i := 0; i < b.N; i++ {
		res = paperExperiment(b, scheduler.NewRoundRobin())
	}
	var maxLatency float64
	for _, r := range res.Records {
		if r.LatencyMS > maxLatency {
			maxLatency = r.LatencyMS
		}
	}
	if testing.Verbose() {
		for _, r := range res.Records {
			b.Logf("req %3d  find %6.1f ms  latency %12.1f ms", r.ID, r.FindingMS, r.LatencyMS)
		}
	}
	b.ReportMetric(res.MeanFindingMS(), "find_ms")   // paper 49.8
	b.ReportMetric(maxLatency/1e6, "max_latency_Ms") // paper ~50 (×10⁶ ms)
}

// BenchmarkTable1Totals regenerates the §6.2 headline numbers.
func BenchmarkTable1Totals(b *testing.B) {
	var res *simgrid.ExperimentResult
	for i := 0; i < b.N; i++ {
		res = paperExperiment(b, scheduler.NewRoundRobin())
	}
	b.Logf("whole experiment     %s (paper 16h 18min 43s)", simgrid.Hours(res.TotalS))
	b.Logf("phase 1              %s (paper 1h 15min 11s)", simgrid.Hours(res.Phase1.DurationS()))
	b.Logf("phase 2 mean         %s (paper 1h 24min 1s)", simgrid.Hours(res.MeanPhase2S))
	b.Logf("sequential baseline  %s (paper >141h)", simgrid.Hours(res.SequentialS))
	b.ReportMetric(res.MakespanHours(), "makespan_hours")     // paper 16.31
	b.ReportMetric(res.SequentialS/3600, "sequential_hours")  // paper >141
	b.ReportMetric(res.OverheadMS, "overhead_ms_per_request") // paper 70.6
	b.ReportMetric(res.TotalOverhead, "total_overhead_s")     // paper ≈7
	b.ReportMetric(res.SequentialS/res.TotalS, "speedup")     // paper ≈8.7
}

// BenchmarkAblationScheduler measures ablation A1: the §8 plug-in scheduler
// ("to best map the simulations on the available resources according to
// their processing power") against the paper's default equal distribution.
func BenchmarkAblationScheduler(b *testing.B) {
	var rr, pa *simgrid.ExperimentResult
	for i := 0; i < b.N; i++ {
		rr = paperExperiment(b, scheduler.NewRoundRobin())
		pa = paperExperiment(b, scheduler.NewPowerAware())
	}
	b.Logf("roundrobin makespan %s, poweraware %s",
		simgrid.Hours(rr.TotalS), simgrid.Hours(pa.TotalS))
	b.ReportMetric(rr.MakespanHours(), "roundrobin_hours")
	b.ReportMetric(pa.MakespanHours(), "poweraware_hours")
	b.ReportMetric(100*(rr.TotalS-pa.TotalS)/rr.TotalS, "improvement_pct")
	if pa.TotalS >= rr.TotalS {
		b.Fatal("the plug-in scheduler must improve the makespan")
	}
}

// BenchmarkAblationWorkflow measures ablation A2: running the pipeline
// through the workflow engine versus the hard-coded service sequence the
// paper currently uses ("the whole simulation process is hard-coded within
// the server").
func BenchmarkAblationWorkflow(b *testing.B) {
	cfg := benchConfig()
	cfg.Aout = []float64{0.5, 1.0}

	hardcoded := func() error {
		_, err := ramses.Phase2(cfg, [3]float64{0.5, 0.5, 0.5}, 2, "")
		return err
	}
	engine := func() error {
		dag := workflow.New("phase2")
		dag.Add("run", "ramsesZoom2", nil, func(*workflow.TaskContext) error {
			return hardcoded()
		})
		rep := dag.Execute(1)
		return rep.Err
	}

	b.Run("hardcoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := hardcoded(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workflow-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := engine(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBatch measures ablation A3: routing every solve through
// an OAR-style reservation (the §8 batch integration) versus direct
// execution, at full campaign scale in the DES.
func BenchmarkAblationBatch(b *testing.B) {
	var direct, batched *simgrid.ExperimentResult
	for i := 0; i < b.N; i++ {
		direct = paperExperiment(b, scheduler.NewRoundRobin())
		cfg := simgrid.DefaultExperiment(scheduler.NewRoundRobin())
		cfg.BatchMode = true
		cfg.BatchGrantS = 30
		var err error
		batched, err = simgrid.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(direct.MakespanHours(), "direct_hours")
	b.ReportMetric(batched.MakespanHours(), "batch_hours")
	b.ReportMetric(batched.TotalS-direct.TotalS, "batch_cost_s")
}

// BenchmarkAblationForecast measures ablation A5: the CoRI-style resource
// forecasting subsystem (internal/cori) feeding the history-aware plug-in
// schedulers, at full campaign scale on the paper's heterogeneous Figure-5
// platform. Reported arms: the paper's round-robin, the static power-aware
// plug-in, forecast-aware with no prior history (cold), and forecast-aware
// after a training campaign (trained).
func BenchmarkAblationForecast(b *testing.B) {
	var res *simgrid.ForecastAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simgrid.RunForecastAblation(func() simgrid.ExperimentConfig {
			return simgrid.DefaultExperiment(nil)
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("honest: roundrobin %s, poweraware %s, forecast cold %s, trained %s, contention %s",
		simgrid.Hours(res.RoundRobin.TotalS), simgrid.Hours(res.PowerAware.TotalS),
		simgrid.Hours(res.ForecastCold.TotalS), simgrid.Hours(res.ForecastTrained.TotalS),
		simgrid.Hours(res.Contention.TotalS))
	b.Logf("miscalibrated: roundrobin %s, poweraware %s, forecast trained %s",
		simgrid.Hours(res.SkewRoundRobin.TotalS), simgrid.Hours(res.SkewPowerAware.TotalS),
		simgrid.Hours(res.SkewTrained.TotalS))
	b.ReportMetric(res.RoundRobin.MakespanHours(), "roundrobin_hours")
	b.ReportMetric(res.PowerAware.MakespanHours(), "poweraware_hours")
	b.ReportMetric(res.ForecastCold.MakespanHours(), "forecast_cold_hours")
	b.ReportMetric(res.ForecastTrained.MakespanHours(), "forecast_trained_hours")
	b.ReportMetric(res.Contention.MakespanHours(), "contention_hours")
	b.ReportMetric(res.SkewPowerAware.MakespanHours(), "skew_poweraware_hours")
	b.ReportMetric(res.SkewTrained.MakespanHours(), "skew_forecast_hours")
	b.ReportMetric(res.ImprovementPct(), "improvement_pct")
	b.ReportMetric(res.ForecastGainPct(), "forecast_gain_pct")
	if res.ForecastTrained.TotalS >= res.RoundRobin.TotalS {
		b.Fatal("the forecast-fed plug-in scheduler must improve on round-robin")
	}
	if res.SkewTrained.TotalS >= res.SkewPowerAware.TotalS {
		b.Fatal("on a miscalibrated platform, measured forecasting must beat the misled static plug-in")
	}
}

// BenchmarkMiddlewareOverhead measures the real (not simulated) middleware
// path: an in-process deployment servicing trivial requests, isolating the
// per-call cost of submission + scheduling + transfer the paper bounds at
// ~70 ms on Grid'5000 hardware.
func BenchmarkMiddlewareOverhead(b *testing.B) {
	runMiddlewareOverhead(b, true)
}

// BenchmarkMiddlewareOverheadTCP is the same path over loopback TCP: what the
// persistent framed transport adds to the in-process call (warm pooled
// connections, no dial and no envelope codec in steady state).
func BenchmarkMiddlewareOverheadTCP(b *testing.B) {
	runMiddlewareOverhead(b, false)
}

// BenchmarkScalingSweep measures ablation A4: how the campaign scales with
// platform capacity — the paper's deployment grown 1×/2×/4× — reporting the
// makespan at each size.
func BenchmarkScalingSweep(b *testing.B) {
	var points []simgrid.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = simgrid.SweepSeDs(func() scheduler.Policy { return scheduler.NewRoundRobin() },
			[]int{1, 2, 4}, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.Logf("%2d SeDs: makespan %.2f h, speedup %.1f×", p.SeDs, p.MakespanHours, p.Speedup)
	}
	b.ReportMetric(points[0].MakespanHours, "seds11_hours")
	b.ReportMetric(points[1].MakespanHours, "seds22_hours")
	b.ReportMetric(points[2].MakespanHours, "seds44_hours")
	if points[2].MakespanHours >= points[0].MakespanHours {
		b.Fatal("scaling the platform must cut the makespan")
	}
}
