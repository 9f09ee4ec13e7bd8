package cori

import (
	"math"
	"sort"
	"testing"
	"time"
)

// observeLinear feeds samples from a server that delivers `gflops` over the
// given work sizes.
func observeLinear(m *Monitor, service string, gflops float64, works []float64) {
	for _, w := range works {
		m.Observe(Sample{Service: service, WorkGFlops: w, Duration: time.Duration(w / gflops * float64(time.Second))})
	}
}

// TestMergeModelsConvergence is the gossip-merge guarantee: two half-trained
// monitors (odd/even halves of one workload) merge to within tolerance of
// the monitor that saw everything.
func TestMergeModelsConvergence(t *testing.T) {
	works := make([]float64, 40)
	for i := range works {
		works[i] = float64(1000 + 350*i)
	}
	full := NewMonitor(Config{})
	halfA := NewMonitor(Config{})
	halfB := NewMonitor(Config{})
	observeLinear(full, "zoom", 40, works)
	var evens, odds []float64
	for i, w := range works {
		if i%2 == 0 {
			evens = append(evens, w)
		} else {
			odds = append(odds, w)
		}
	}
	observeLinear(halfA, "zoom", 40, evens)
	observeLinear(halfB, "zoom", 40, odds)

	fullModel, _ := full.Model("zoom")
	a, _ := halfA.Model("zoom")
	b, _ := halfB.Model("zoom")
	merged, ok := MergeModels(a, b)
	if !ok {
		t.Fatal("merging two trained models must succeed")
	}
	if merged.Samples != fullModel.Samples {
		t.Fatalf("merged Samples = %d, want %d", merged.Samples, fullModel.Samples)
	}
	if rel := math.Abs(merged.DeliveredGFlops()-fullModel.DeliveredGFlops()) / fullModel.DeliveredGFlops(); rel > 0.05 {
		t.Fatalf("merged delivered power %g vs full %g (rel %.3f), want within 5%%",
			merged.DeliveredGFlops(), fullModel.DeliveredGFlops(), rel)
	}
	for _, work := range []float64{2000, 8000, 20000} {
		got, want := merged.SolveSeconds(work), fullModel.SolveSeconds(work)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Fatalf("merged SolveSeconds(%g) = %g vs full %g (rel %.3f), want within 5%%", work, got, want, rel)
		}
	}
	// A stale model must barely move a fresh one: weight is confidence×samples.
	stale := a
	stale.Confidence = 0.01
	stale.EWMASeconds = 10 * a.EWMASeconds
	dominated, _ := MergeModels(b, stale)
	if rel := math.Abs(dominated.EWMASeconds-b.EWMASeconds) / b.EWMASeconds; rel > 0.15 {
		t.Fatalf("a 0.01-confidence model shifted the merge by %.1f%%, want < 15%%", rel*100)
	}
	if _, ok := MergeModels(); ok {
		t.Fatal("merging nothing must report !ok")
	}
	if _, ok := MergeModels(Model{Service: "empty"}); ok {
		t.Fatal("merging only unusable models must report !ok")
	}
}

// TestRegistryGossipConvergence checks the registry's merge semantics:
// per-source last-writer-wins, idempotent under repeated exchange, cluster
// priors keyed by resource class.
func TestRegistryGossipConvergence(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	mkModel := func(ewma float64) []Model {
		return []Model{{Service: "zoom", Samples: 10, EWMASeconds: ewma, Confidence: 1}}
	}
	parent, child := NewRegistry(), NewRegistry()
	child.Update("SeD-A", "grillon", t0, mkModel(100))
	child.Update("SeD-B", "grillon", t0, mkModel(200))
	child.Update("SeD-C", "helios", t0, mkModel(999))

	// One exchange in each direction converges the two registries.
	parent.Merge(child.Snapshot())
	child.Merge(parent.Snapshot())
	for _, r := range []*Registry{parent, child} {
		prior, ok := r.Prior("grillon", "zoom")
		if !ok {
			t.Fatal("grillon prior must exist after gossip")
		}
		if math.Abs(prior.EWMASeconds-150) > 1e-9 { // equal weights → plain mean
			t.Fatalf("grillon prior EWMA = %g, want 150", prior.EWMASeconds)
		}
		if prior.Samples != 20 {
			t.Fatalf("grillon prior Samples = %d, want 20", prior.Samples)
		}
		if _, ok := r.Prior("grillon", "other-svc"); ok {
			t.Fatal("unknown service must have no prior")
		}
		if _, ok := r.Prior("violette", "zoom"); ok {
			t.Fatal("unknown cluster must have no prior")
		}
	}

	// Re-merging the same snapshot is a no-op (idempotence)...
	before, _ := parent.Prior("grillon", "zoom")
	parent.Merge(child.Snapshot())
	parent.Merge(child.Snapshot())
	after, _ := parent.Prior("grillon", "zoom")
	if before.EWMASeconds != after.EWMASeconds || before.Samples != after.Samples {
		t.Fatalf("repeated merges must not double-count: %+v vs %+v", before, after)
	}
	// ...and an older report never overwrites a newer one, in either merge
	// direction.
	parent.Update("SeD-A", "grillon", t0.Add(time.Hour), mkModel(300))
	stale := NewRegistry()
	stale.Update("SeD-A", "grillon", t0.Add(time.Minute), mkModel(1))
	parent.Merge(stale.Snapshot())
	prior, _ := parent.Prior("grillon", "zoom")
	if math.Abs(prior.EWMASeconds-250) > 1e-9 { // (300+200)/2
		t.Fatalf("stale gossip must lose to the newer report: EWMA = %g, want 250", prior.EWMASeconds)
	}
	if got := parent.Clusters(); len(got) != 2 || got[0] != "grillon" || got[1] != "helios" {
		t.Fatalf("Clusters = %v, want [grillon helios]", got)
	}
	// Unlabelled or empty contributions are dropped, and so are Warm models
	// — a borrowed prior must not echo back as independent measurement.
	parent.Update("SeD-X", "", t0, mkModel(5))
	parent.Update("", "grillon", t0, mkModel(5))
	parent.Update("SeD-Y", "grillon", t0, nil)
	warmEcho := mkModel(7)
	warmEcho[0].Warm = true
	parent.Update("SeD-warm", "grillon", t0.Add(2*time.Hour), warmEcho)
	if ms := parent.PriorsFor("grillon"); len(ms) != 1 {
		t.Fatalf("PriorsFor(grillon) = %d services, want 1", len(ms))
	}
	echoed, _ := parent.Prior("grillon", "zoom")
	if echoed.Samples != 20 { // still only SeD-A + SeD-B, 10 each
		t.Fatalf("warm echo must not join the merge: Samples = %d, want 20", echoed.Samples)
	}

	// A snapshot of any other schema version is rejected outright.
	bad := child.Snapshot()
	bad.Version = SnapshotVersion + 1
	if err := parent.Merge(bad); err == nil {
		t.Fatal("Merge must reject a version-mismatched snapshot")
	}
}

// TestWarmStartBlendsPrior covers the consumer side of gossip: a monitor
// seeded with a cluster prior answers confidently before its first local
// sample, and local history takes the model over as it accumulates.
func TestWarmStartBlendsPrior(t *testing.T) {
	clk := newFakeClock()
	m := NewMonitor(Config{Now: clk.Now, HalfLife: time.Hour})
	prior := Model{
		Service: "zoom", Samples: 32, EWMASeconds: 500,
		BaseSeconds: 0, PerGFlopSeconds: 0.025, MeasuredGFlops: 40,
		Confidence: 1,
	}
	m.WarmStart(prior)

	model, ok := m.Model("zoom")
	if !ok {
		t.Fatal("a warm-started service must answer")
	}
	if !model.Warm {
		t.Fatal("warm model must be flagged Warm")
	}
	if model.Samples <= 0 || model.Confidence <= 0 {
		t.Fatalf("warm model must look trained: samples=%d confidence=%g", model.Samples, model.Confidence)
	}
	// The prior's fit answers work-size queries immediately.
	if got := model.SolveSeconds(20000); math.Abs(got-500) > 1e-9 {
		t.Fatalf("warm SolveSeconds(20000) = %g, want 500 from the prior fit", got)
	}
	// The prior keeps decaying on the local clock.
	clk.Advance(time.Hour)
	aged, _ := m.Model("zoom")
	if math.Abs(aged.Confidence-0.5) > 1e-9 {
		t.Fatalf("warm confidence after one half-life = %g, want 0.5", aged.Confidence)
	}
	// Monitor surface methods see the warm service.
	if svcs := m.Services(); len(svcs) != 1 || svcs[0] != "zoom" {
		t.Fatalf("Services = %v, want [zoom]", svcs)
	}
	if sec, ok := m.Forecast("zoom", 20000); !ok || math.Abs(sec-500) > 1e-9 {
		t.Fatalf("Forecast on warm service = (%g, %v), want (500, true)", sec, ok)
	}

	// Local observations from a server twice as fast as the prior pull the
	// blend toward the measurement, monotonically.
	last := aged.SolveSeconds(20000)
	for i := 0; i < 64; i++ {
		work := float64(10000 + 1000*(i%10))
		m.Observe(Sample{Service: "zoom", WorkGFlops: work, Duration: time.Duration(work / 80 * float64(time.Second)), At: clk.Now()})
		cur, _ := m.Model("zoom")
		if got := cur.SolveSeconds(20000); got > last+1e-9 {
			t.Fatalf("blend must move toward local measurements, went %g → %g at sample %d", last, got, i+1)
		} else {
			last = got
		}
	}
	trained, _ := m.Model("zoom")
	if got, want := trained.SolveSeconds(20000), 250.0; math.Abs(got-want)/want > 0.01 {
		t.Fatalf("a full window of local history must retire the prior: SolveSeconds = %g, want %g", got, want)
	}
	if trained.Warm {
		t.Fatal("a fully locally trained model must no longer be flagged Warm")
	}

	// A lighter prior never replaces a heavier one; unusable priors are
	// ignored entirely.
	m2 := NewMonitor(Config{Now: clk.Now})
	m2.WarmStart(Model{Service: "svc", Samples: 32, EWMASeconds: 100, Confidence: 1})
	m2.WarmStart(Model{Service: "svc", Samples: 2, EWMASeconds: 9999, Confidence: 0.5})
	got, _ := m2.Model("svc")
	if math.Abs(got.EWMASeconds-100) > 1e-9 {
		t.Fatalf("lighter prior must not replace the heavier one: EWMA = %g", got.EWMASeconds)
	}
	m2.WarmStart(Model{Service: "bogus"})
	m2.WarmStart(Model{Service: "bogus", Samples: 5})
	if _, ok := m2.Model("bogus"); ok {
		t.Fatal("priors with no duration signal must be ignored")
	}
}

// TestWaitRegressionReplacesDrainApprox covers the queue-wait regression: a
// window with depth spread predicts wait from the fitted line, and
// DrainEstimate prefers it over the pending × EWMA approximation.
func TestWaitRegressionReplacesDrainApprox(t *testing.T) {
	m := NewMonitor(Config{})
	// Waits generated by wait = 60·depth + 5 seconds.
	for i := 0; i < 12; i++ {
		depth := i % 4
		m.Observe(Sample{
			Service:    "zoom",
			Duration:   100 * time.Second,
			QueueDepth: depth,
			Wait:       time.Duration(60*depth+5) * time.Second,
		})
	}
	model, _ := m.Model("zoom")
	if model.WaitPerDepthSeconds <= 0 {
		t.Fatal("depth spread must fit a wait slope")
	}
	w, ok := model.WaitAtDepth(3)
	if !ok || math.Abs(w-185) > 1 {
		t.Fatalf("WaitAtDepth(3) = (%g, %v), want ≈185", w, ok)
	}
	// DrainEstimate uses the regression, not pending × EWMA (which would say
	// 6 × 100 s here).
	if got := m.DrainEstimate(model, map[string]int{"zoom": 6}, 6, 1); math.Abs(got-365) > 2 {
		t.Fatalf("DrainEstimate with a trained regression = %g, want ≈365", got)
	}

	// Without depth spread the regression declines and the approximation is
	// used unchanged.
	flat := NewMonitor(Config{})
	for i := 0; i < 6; i++ {
		flat.Observe(Sample{Service: "zoom", Duration: 100 * time.Second, QueueDepth: 2, Wait: 125 * time.Second})
	}
	fm, _ := flat.Model("zoom")
	if fm.WaitPerDepthSeconds != 0 {
		t.Fatalf("constant-depth window must decline the wait fit, got slope %g", fm.WaitPerDepthSeconds)
	}
	if _, ok := fm.WaitAtDepth(2); ok {
		t.Fatal("WaitAtDepth must report !ok without a fit")
	}
	want := flat.DrainSeconds(map[string]int{"zoom": 3}, fm, 1)
	if got := flat.DrainEstimate(fm, map[string]int{"zoom": 3}, 3, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("DrainEstimate without a fit = %g, want the DrainSeconds fallback %g", got, want)
	}
	// Samples that never observed their wait keep the fit unbiased — only
	// the depth-0 legacy samples (Wait unset) are excluded.
	legacy := NewMonitor(Config{})
	legacy.Observe(Sample{Service: "zoom", Duration: time.Second, QueueDepth: 5})
	lm, _ := legacy.Model("zoom")
	if lm.MeanWaitSeconds != 0 || lm.WaitPerDepthSeconds != 0 {
		t.Fatalf("wait-less samples must not train the regression: %+v", lm)
	}
}

// Clusters lists the clusters with at least one contribution, sorted.
func (r *Registry) Clusters() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	for _, sm := range r.sources {
		seen[sm.Cluster] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
