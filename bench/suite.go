package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

// A suite is what an ablation user runs: the paper experiment (Figures 5
// and 6 and the §6.2 totals) and every ablation of the simulator with its
// default configuration. suiteParts lists them in the order they run; each
// returns its headline numbers.
type suitePart struct {
	name string
	run  func(mk func() simgrid.ExperimentConfig, seed int64) (map[string]float64, error)
}

var suiteParts = []suitePart{
	{"experiment", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		cfg := mk()
		cfg.Policy = scheduler.NewRoundRobin()
		res, err := simgrid.RunExperiment(cfg)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"makespan_hours":          res.MakespanHours(),
			"overhead_ms_per_request": res.OverheadMS,
			"requests":                float64(len(res.Records)),
		}, nil
	}},
	{"forecast", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		res, err := simgrid.RunForecastAblation(mk, 2)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a5_improvement_pct": res.ImprovementPct(), "a5_forecast_gain_pct": res.ForecastGainPct()}, nil
	}},
	{"deploy", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		res, err := simgrid.RunDeployAblation(mk, 2)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a6_makespan_gain_pct": res.MakespanGainPct()}, nil
	}},
	{"warmstart", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		res, err := simgrid.RunWarmStartAblation(mk, "Nancy2", 2)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a7_makespan_delta_pct": res.MakespanDeltaPct()}, nil
	}},
	{"replan", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		res, err := simgrid.RunReplanAblation(mk, simgrid.ReplanAblationConfig{})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a8_live_gain_pct": res.LiveGainPct()}, nil
	}},
	{"backfill", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		res, err := simgrid.RunBackfillAblation(mk, simgrid.BackfillAblationConfig{})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a9_wait_gain_pct": res.WaitGainPct()}, nil
	}},
	{"failure", func(mk func() simgrid.ExperimentConfig, _ int64) (map[string]float64, error) {
		res, err := simgrid.RunFailureAblation(mk, simgrid.FailureAblationConfig{})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a10_makespan_gain_pct": res.MakespanGainPct(), "a10_solves_saved": float64(res.SolvesSaved())}, nil
	}},
	{"workflow", func(func() simgrid.ExperimentConfig, int64) (map[string]float64, error) {
		res, err := simgrid.RunWorkflowAblation(simgrid.WorkflowAblationConfig{})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a11_skew_gain_pct": res.SkewGainPct()}, nil
	}},
	{"federation", func(func() simgrid.ExperimentConfig, int64) (map[string]float64, error) {
		res, err := simgrid.RunFederationAblation(simgrid.FederationAblationConfig{})
		if err != nil {
			return nil, err
		}
		return map[string]float64{"a12_throughput_gain_x": res.ThroughputGainX()}, nil
	}},
	{"data", func(_ func() simgrid.ExperimentConfig, seed int64) (map[string]float64, error) {
		res := simgrid.RunDataAblation(simgrid.DataAblationConfig{Seed: seed})
		return map[string]float64{"a13_makespan_gain_pct": res.MakespanGainPct(), "a13_bytes_saved_pct": res.BytesSavedPct()}, nil
	}},
}

// suiteRun is one suite's result: the headline numbers, and how long each
// part took.
type suiteRun struct {
	Headline map[string]float64
	PartMS   map[string]float64
	TotalMS  float64
}

// runSuite runs every part once. Seed 0 keeps each configuration's own
// default seed — the reference suite whose numbers the expect block pins;
// any other seed replaces the seeds the configurations take. A traced run
// records a "suite" span with one "ablation" child per part.
func runSuite(seed int64, tr *tracer, req string) (*suiteRun, error) {
	mk := func() simgrid.ExperimentConfig {
		cfg := simgrid.DefaultExperiment(nil)
		if seed != 0 {
			cfg.Seed = seed
		}
		return cfg
	}
	out := &suiteRun{Headline: make(map[string]float64), PartMS: make(map[string]float64)}
	root := 0
	if tr != nil {
		root = tr.newID()
	}
	start := time.Now()
	for _, part := range suiteParts {
		t0 := time.Now()
		headline, err := part.run(mk, seed)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("suite part %s: %w", part.name, err)
		}
		out.PartMS[part.name] = float64(t1.Sub(t0)) / 1e6
		for k, v := range headline {
			out.Headline[k] = v
		}
		if tr != nil {
			tr.add(span{Parent: root, Name: "ablation", Req: req, Detail: part.name, Start: t0, End: t1})
		}
	}
	end := time.Now()
	out.TotalMS = float64(end.Sub(start)) / 1e6
	if tr != nil {
		tr.add(span{ID: root, Name: "suite", Req: req, Start: start, End: end})
	}
	return out, nil
}

// expectJSON pins the reference suite's headline numbers. The contract for
// BENCHMARK.json fixes its keys, so the block lives beside the benchmark.
//
//go:embed expect.json
var expectJSON []byte

// sameHeadline reports the first number on which two suites disagree. The
// simulator is deterministic, so agreement is exact up to the rounding of
// the decimal text the expectation is stored in.
func sameHeadline(got, want map[string]float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("headline %s missing", k)
		}
		if w := want[k]; math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("headline %s = %.12g, want %.12g", k, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d headline numbers, want %d", len(got), len(want))
	}
	return nil
}

// checkReference runs the reference suite and compares it with expect.json.
func checkReference() error {
	var want map[string]float64
	if err := json.Unmarshal(expectJSON, &want); err != nil {
		return fmt.Errorf("expect.json: %w", err)
	}
	ref, err := runSuite(0, nil, "")
	if err != nil {
		return err
	}
	return sameHeadline(ref.Headline, want)
}

// runSimSuite measures suites back to back on one goroutine. There is no
// live stack: set-up is the reference suite, which doubles as the warm-up
// and as the check against the pinned numbers. The measured suites take
// their seeds from the run's seed and must agree with each other exactly.
func runSimSuite(e *env) (*outcome, error) {
	o := &outcome{}
	// A wrong reference number is a failed operation, not a broken run.
	_, o.SetupS, _ = repeatSetup(e.setups(15), func() (struct{}, error) {
		e.tally.op(checkReference())
		return struct{}{}, nil
	}, func(struct{}) {})

	seed := e.cfg.Seed
	if seed == 0 {
		seed = 1
	}
	const heapOps = 20
	var first *suiteRun
	suites := 0
	suite := func() (float64, error) {
		suites++
		run, err := runSuite(seed, e.tr, fmt.Sprintf("sim_suite-%d", suites))
		if err == nil {
			if first == nil {
				first = run
			}
			err = sameHeadline(run.Headline, first.Headline)
		}
		if err == nil && run.Headline["requests"] != 100 {
			err = fmt.Errorf("experiment completed %v requests, want 100", run.Headline["requests"])
		}
		if e.tally.op(err) != nil {
			return 0, err
		}
		return run.TotalMS, nil
	}
	o.heapAfter(e, heapOps, func() error { _, err := suite(); return err })
	var suiteMS []float64
	o.measure(func() {
		start := time.Now()
		deadline := start.Add(e.phase(1))
		for o.Ops == 0 || time.Now().Before(deadline) {
			took, err := suite()
			o.Ops++
			if err != nil {
				continue
			}
			suiteMS = append(suiteMS, took)
		}
	})
	o.Blocks = chunkBlocks(suiteMS, runBlocks)
	o.notef("%d suites of %d parts, seed %d, one goroutine", o.Ops, len(suiteParts), seed)
	return o, nil
}
