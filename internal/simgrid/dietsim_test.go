package simgrid

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/logsvc"
	"repro/internal/scheduler"
)

func runDefault(t *testing.T, policy scheduler.Policy) *ExperimentResult {
	t.Helper()
	res, err := RunExperiment(DefaultExperiment(policy))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExperimentValidation(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	cfg := DefaultExperiment(scheduler.NewRoundRobin())
	cfg.NRequests = 0
	if _, err := RunExperiment(cfg); err == nil {
		t.Error("zero requests should fail")
	}
	cfg = DefaultExperiment(nil)
	if _, err := RunExperiment(cfg); err == nil {
		t.Error("nil policy should fail")
	}
}

func TestPaperDistribution(t *testing.T) {
	// Figure 5 bottom + §6.2: "each SED received 9 requests (one of them
	// received 10)".
	res := runDefault(t, scheduler.NewRoundRobin())
	counts := res.RequestCounts()
	if len(counts) != 11 {
		t.Fatalf("%d SeDs, want 11", len(counts))
	}
	tens, nines := 0, 0
	for sed, c := range counts {
		switch c {
		case 9:
			nines++
		case 10:
			tens++
		default:
			t.Errorf("SeD %s received %d requests, want 9 or 10", sed, c)
		}
	}
	if tens != 1 || nines != 10 {
		t.Errorf("distribution %d×10 + %d×9, want 1×10 + 10×9", tens, nines)
	}
}

func TestPaperImbalance(t *testing.T) {
	// Figure 5 top: "about 15h for Toulouse and 10h30 for Nancy".
	res := runDefault(t, scheduler.NewRoundRobin())
	busy := res.BusyHoursBySeD()
	toulouse := busy["Toulouse1"]
	nancy := busy["Nancy1"]
	if toulouse < 13 || toulouse > 17 {
		t.Errorf("Toulouse busy %0.1fh, paper ≈ 15h", toulouse)
	}
	if nancy < 9 || nancy > 12 {
		t.Errorf("Nancy busy %0.1fh, paper ≈ 10.5h", nancy)
	}
	if toulouse <= nancy {
		t.Error("the paper's imbalance (Toulouse > Nancy) must reproduce")
	}
}

func TestPaperTotals(t *testing.T) {
	// §6.2 headline numbers (shape: same order, within ~15%).
	res := runDefault(t, scheduler.NewRoundRobin())
	checks := []struct {
		name      string
		gotHours  float64
		paperHour float64
		tolFrac   float64
	}{
		{"total experiment", res.TotalS / 3600, 16.31, 0.15},
		{"phase 1", res.Phase1.DurationS() / 3600, 1.253, 0.25},
		{"phase 2 mean", res.MeanPhase2S / 3600, 1.40, 0.10},
		{"sequential baseline", res.SequentialS / 3600, 141, 0.10},
	}
	for _, c := range checks {
		if math.Abs(c.gotHours-c.paperHour)/c.paperHour > c.tolFrac {
			t.Errorf("%s: %0.2fh, paper %0.2fh (tol %0.0f%%)",
				c.name, c.gotHours, c.paperHour, 100*c.tolFrac)
		}
	}
	// Speedup: must remain ~8-10× (141h vs 16.3h).
	speedup := res.SequentialS / res.TotalS
	if speedup < 7 || speedup > 11 {
		t.Errorf("speedup %0.1f×, paper ≈ 8.7×", speedup)
	}
}

func TestPaperOverheads(t *testing.T) {
	// §6.2: find ≈ 49.8 ms, nearly constant; overhead ≈ 70.6 ms/request,
	// ≈ 7 s total.
	res := runDefault(t, scheduler.NewRoundRobin())
	find := res.MeanFindingMS()
	if math.Abs(find-49.8) > 5 {
		t.Errorf("mean finding %0.1f ms, paper 49.8 ms", find)
	}
	if math.Abs(res.OverheadMS-70.6) > 7 {
		t.Errorf("overhead per request %0.1f ms, paper 70.6 ms", res.OverheadMS)
	}
	if res.TotalOverhead < 5 || res.TotalOverhead > 9 {
		t.Errorf("total overhead %0.1f s, paper ≈ 7 s", res.TotalOverhead)
	}
	// "The finding time is low and nearly constant": spread under 20%.
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, r := range res.Records {
		if r.FindingMS < lo {
			lo = r.FindingMS
		}
		if r.FindingMS > hi {
			hi = r.FindingMS
		}
	}
	if (hi-lo)/find > 0.25 {
		t.Errorf("finding time spread [%0.1f, %0.1f] ms too wide around %0.1f", lo, hi, find)
	}
}

func TestLatencyGrowsWithQueueing(t *testing.T) {
	// Figure 6: the latency (log scale) grows by orders of magnitude as the
	// queues fill; late requests wait for ~9 predecessors (~10⁷ ms).
	res := runDefault(t, scheduler.NewRoundRobin())
	first, last := res.Records[0], res.Records[len(res.Records)-1]
	if first.LatencyMS > 1000 {
		t.Errorf("first request latency %0.0f ms; should be near-immediate", first.LatencyMS)
	}
	var maxLatency float64
	for _, r := range res.Records {
		if r.LatencyMS > maxLatency {
			maxLatency = r.LatencyMS
		}
	}
	if maxLatency < 1e7 || maxLatency > 1e8 {
		t.Errorf("max latency %0.3g ms, paper's Figure 6 tops near 5×10⁷", maxLatency)
	}
	if last.LatencyMS < first.LatencyMS {
		t.Error("late requests should wait longer than the first")
	}
}

func TestConservationInvariants(t *testing.T) {
	res := runDefault(t, scheduler.NewRoundRobin())
	// Every request served exactly once.
	if len(res.Records) != 100 {
		t.Fatalf("%d records, want 100", len(res.Records))
	}
	seen := map[int]bool{}
	var perSedTotal int
	for _, r := range res.Records {
		if seen[r.ID] {
			t.Fatalf("request %d served twice", r.ID)
		}
		seen[r.ID] = true
		if r.StartS < r.SubmitS || r.EndS < r.StartS {
			t.Fatalf("request %d has inverted times: %+v", r.ID, r)
		}
	}
	for _, s := range res.PerSeD {
		perSedTotal += len(s.Requests)
		// Gantt items on one SeD must not overlap (capacity 1).
		for i := 1; i < len(s.Requests); i++ {
			if s.Requests[i].StartS < s.Requests[i-1].EndS-1e-9 {
				t.Errorf("SeD %s: request %d starts before %d ends", s.Name, s.Requests[i].ID, s.Requests[i-1].ID)
			}
		}
	}
	if perSedTotal != 100 {
		t.Errorf("per-SeD records sum to %d", perSedTotal)
	}
}

func TestDeterminism(t *testing.T) {
	a := runDefault(t, scheduler.NewRoundRobin())
	b := runDefault(t, scheduler.NewRoundRobin())
	if a.TotalS != b.TotalS || a.MeanPhase2S != b.MeanPhase2S {
		t.Error("experiment must be deterministic for a fixed seed")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestPluginSchedulerAblation(t *testing.T) {
	// The paper's §8 claim: "a better makespan could be attained by writing
	// a plug-in scheduler" that accounts for processing power. Verify the
	// power-aware policy beats the default equal distribution.
	rr := runDefault(t, scheduler.NewRoundRobin())
	pa := runDefault(t, scheduler.NewPowerAware())
	if pa.TotalS >= rr.TotalS {
		t.Errorf("power-aware makespan %0.2fh should beat round-robin %0.2fh",
			pa.TotalS/3600, rr.TotalS/3600)
	}
	// The imbalance shrinks: spread of busy hours across SeDs.
	spread := func(r *ExperimentResult) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range r.PerSeD {
			if s.BusyHours < lo {
				lo = s.BusyHours
			}
			if s.BusyHours > hi {
				hi = s.BusyHours
			}
		}
		return hi - lo
	}
	if spread(pa) >= spread(rr) {
		t.Errorf("power-aware spread %0.2fh should be tighter than round-robin %0.2fh",
			spread(pa), spread(rr))
	}
}

func TestBatchModeAblation(t *testing.T) {
	direct := runDefault(t, scheduler.NewRoundRobin())
	cfg := DefaultExperiment(scheduler.NewRoundRobin())
	cfg.BatchMode = true
	cfg.BatchGrantS = 30 // a 30 s reservation grant per solve
	batched, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batched.TotalS <= direct.TotalS {
		t.Error("batch grants must add makespan")
	}
	// But only by roughly the grant per queued request, not catastrophically.
	added := batched.TotalS - direct.TotalS
	if added > 30*12 { // at most ~10 queued grants on the critical path + slack
		t.Errorf("batch mode added %0.0f s, more than expected", added)
	}
}

func TestPrinters(t *testing.T) {
	res := runDefault(t, scheduler.NewRoundRobin())
	var f5, f6, tot strings.Builder
	res.PrintFig5(&f5)
	res.PrintFig6(&f6)
	res.PrintTotals(&tot)
	if !strings.Contains(f5.String(), "Toulouse1") {
		t.Error("Fig5 output missing SeDs")
	}
	if !strings.Contains(f6.String(), "find_ms") {
		t.Error("Fig6 output missing header")
	}
	if !strings.Contains(tot.String(), "sequential baseline") {
		t.Error("totals output incomplete")
	}
	if len(strings.Split(strings.TrimSpace(f6.String()), "\n")) != 102 {
		t.Error("Fig6 should print one row per request")
	}
}

func TestHoursFormat(t *testing.T) {
	if got := Hours(58723); got != "16h 18min 43s" {
		t.Errorf("Hours(58723) = %q, want the paper's 16h 18min 43s format", got)
	}
	if got := Hours(0); got != "0h 0min 0s" {
		t.Errorf("Hours(0) = %q", got)
	}
}

// TestCampaignSpansMirrorLiveTaxonomy checks the virtual-time trace: a
// simulated batch campaign publishes the same span kinds the live stack
// emits, grouped per request, stamped in virtual nanoseconds, and the whole
// trace round-trips through the chrome://tracing exporter.
func TestCampaignSpansMirrorLiveTaxonomy(t *testing.T) {
	bus := logsvc.New(8192)
	cfg := DefaultExperiment(scheduler.NewRoundRobin())
	cfg.BatchMode = true
	cfg.BatchGrantS = 30
	cfg.Spans = bus
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := logsvc.SpansByRequest(bus.History())
	if len(groups) != cfg.NRequests+1 { // the phase-1 zoom plus every phase-2 request
		t.Fatalf("%d traced requests, want %d", len(groups), cfg.NRequests+1)
	}
	horizon := int64(res.TotalS * 1e9)
	for id, spans := range groups {
		kinds := map[string]int{}
		for _, sp := range spans {
			kinds[sp.Kind]++
			if sp.StartNanos < 0 || sp.EndNanos > horizon+1 {
				t.Errorf("request %s: span %s [%d,%d] outside the campaign horizon %d",
					id, sp.Kind, sp.StartNanos, sp.EndNanos, horizon)
			}
			if sp.EndNanos < sp.StartNanos {
				t.Errorf("request %s: span %s ends before it starts", id, sp.Kind)
			}
		}
		// The same core taxonomy the live acceptance test asserts.
		for _, want := range []string{logsvc.KindSubmit, logsvc.KindSchedule,
			logsvc.KindQueue, logsvc.KindSolve, logsvc.KindComplete} {
			if kinds[want] != 1 {
				t.Errorf("request %s: %d %q spans, want 1 (kinds %v)", id, kinds[want], want, kinds)
			}
		}
		if kinds[logsvc.KindReserve] < 1 {
			t.Errorf("request %s: batch mode must add a reserve span (kinds %v)", id, kinds)
		}
	}

	// The virtual-time trace renders through the same exporter as a live one.
	var buf bytes.Buffer
	if err := logsvc.WriteChromeTrace(&buf, bus.History()); err != nil {
		t.Fatal(err)
	}
	back, err := logsvc.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) == 0 {
		t.Fatal("chrome trace round-trip lost all events")
	}
}

// RequestCounts returns the per-SeD request counts keyed by SeD name.
func (r *ExperimentResult) RequestCounts() map[string]int {
	out := make(map[string]int, len(r.PerSeD))
	for _, s := range r.PerSeD {
		out[s.Name] = len(s.Requests)
	}
	return out
}

// BusyHoursBySeD returns per-SeD total execution hours keyed by name.
func (r *ExperimentResult) BusyHoursBySeD() map[string]float64 {
	out := make(map[string]float64, len(r.PerSeD))
	for _, s := range r.PerSeD {
		out[s.Name] = s.BusyHours
	}
	return out
}
