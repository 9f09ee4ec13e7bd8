package simgrid

import (
	"testing"

	"repro/internal/scheduler"
)

// BenchmarkExperimentForecastAware replays the paper campaign (100 requests,
// 11 SeDs) with CoRI monitors attached — the simulator's end-to-end hot
// path including model fitting on every estimate.
func BenchmarkExperimentForecastAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultExperiment(scheduler.NewForecastAware())
		cfg.Forecast = true
		if _, err := RunExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmStartAblation measures the A7 ablation end to end: one
// training round, registry aggregation, monitor cloning through the
// snapshot round-trip, and both measured arms.
func BenchmarkWarmStartAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunWarmStartAblation(func() ExperimentConfig {
			cfg := DefaultExperiment(nil)
			cfg.NRequests = 60
			return cfg
		}, "Nancy2", 2); err != nil {
			b.Fatal(err)
		}
	}
}

// runSuiteOnce runs the ten suite parts in the benchmark's order at seed 1.
func runSuiteOnce(tb testing.TB) {
	mk := func() ExperimentConfig { return DefaultExperiment(nil) }
	for _, part := range goldenParts {
		if _, err := part.run(mk, 1); err != nil {
			tb.Fatalf("%s: %v", part.name, err)
		}
	}
}

// BenchmarkSuite is the repository benchmark's sim_suite operation: the paper
// experiment and all nine ablations, back to back on one goroutine.
func BenchmarkSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSuiteOnce(b)
	}
}

// BenchmarkSimKernel schedules and fires 100 000 events the way the
// benchmark ladder's simgrid.sim_events_per_s rung does.
func BenchmarkSimKernel(b *testing.B) {
	b.ReportAllocs()
	const events = 100000
	for i := 0; i < b.N; i++ {
		sim := NewSim()
		for j := 0; j < events; j++ {
			if err := sim.At(float64(j%1000), func() {}); err != nil {
				b.Fatal(err)
			}
		}
		if fired := sim.Run(); fired != events {
			b.Fatalf("fired %d of %d events", fired, events)
		}
	}
}

// BenchmarkFederationAblation is A12 alone: 4000 open-loop arrivals per arm,
// the single-MA arm saturated with a backlog of thousands.
func BenchmarkFederationAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFederationAblation(FederationAblationConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSuiteAllocationBudget keeps the suite's allocation count in tier-1: one
// suite allocated 131k objects when events were boxed, rankings re-scored in
// the comparator, a fresh estimate list built per request and a closure per
// item a simulated MA served, and 48k after. An allocation per event or per
// comparison coming back crosses the line.
func TestSuiteAllocationBudget(t *testing.T) {
	const budget = 100000
	if allocs := testing.AllocsPerRun(1, func() { runSuiteOnce(t) }); allocs >= budget {
		t.Errorf("one suite allocated %.0f objects, budget %d", allocs, budget)
	}
}
