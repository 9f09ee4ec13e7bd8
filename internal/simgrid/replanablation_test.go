package simgrid

import (
	"testing"

	"repro/internal/scheduler"
)

// a8Config is the shared A8 test campaign — the full paper workload with the
// ablation's paced arrivals (the virtual-time run costs milliseconds).
func a8Config() ExperimentConfig {
	cfg := DefaultExperiment(nil)
	cfg.ArrivalGapS = 600
	return cfg
}

// TestReplanAblationLiveBeatsStatic is the A8 acceptance assertion: on the
// drifting, miscalibrated platform, live replanning beats the frozen static
// plan's makespan without a restart and recovers a substantial share of the
// offline-replan win.
func TestReplanAblationLiveBeatsStatic(t *testing.T) {
	res, err := RunReplanAblation(a8Config, ReplanAblationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live.TotalS >= res.Static.TotalS {
		t.Fatalf("live replanning must beat the static plan: live %s vs static %s",
			Hours(res.Live.TotalS), Hours(res.Static.TotalS))
	}
	if gain := res.LiveGainPct(); gain < 5 {
		t.Fatalf("live gain %.1f%% over static, want at least 5%%", gain)
	}
	if res.Offline.TotalS >= res.Static.TotalS {
		t.Fatalf("offline replan arm must beat static (sanity): offline %s vs static %s",
			Hours(res.Offline.TotalS), Hours(res.Static.TotalS))
	}
	if rec := res.RecoveryPct(); rec < 40 {
		t.Fatalf("live replanning recovered only %.1f%% of the offline win, want most of it (>=40%%)", rec)
	}
	// The replanner actually ran and adapted: power refreshes happened after
	// the monitors trained.
	updates := 0
	for _, ev := range res.Live.Replans {
		updates += ev.PowerUpdates
	}
	if len(res.Live.Replans) < 2 || updates == 0 {
		t.Fatalf("live arm barely replanned: %d passes, %d power updates", len(res.Live.Replans), updates)
	}
	// The static arm must not have replanned at all.
	if len(res.Static.Replans) != 0 || len(res.Offline.Replans) != 0 {
		t.Fatalf("only the live arm replans: static %d, offline %d", len(res.Static.Replans), len(res.Offline.Replans))
	}
}

// TestReplanAblationMigrationCarriesModel is the second A8 acceptance
// assertion: the misplaced SeD is migrated mid-campaign, its model rides the
// snapshot round-trip un-degraded, and its first post-move dispatch is
// priced by that model — no cold restart.
func TestReplanAblationMigrationCarriesModel(t *testing.T) {
	res, err := RunReplanAblation(a8Config, ReplanAblationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	migs := res.Migrations()
	moveAt, moved := migs[ReplanAblationMisplacedSeD]
	if !moved {
		t.Fatalf("the misplaced SeD %q was never migrated (migrations: %v)", ReplanAblationMisplacedSeD, migs)
	}
	if moveAt <= 0 || moveAt > res.Live.TotalS {
		t.Fatalf("migration time %.0fs outside the campaign (total %.0fs)", moveAt, res.Live.TotalS)
	}
	if ok, why := res.FirstPostMoveForecastTrusted(); !ok {
		t.Fatalf("post-move forecast not trusted: %s", why)
	}
	// And the move is exactly the placement fix: its first record after the
	// move is predicted by the model, not advertised power.
	rec := res.Live.FirstRecordOn(ReplanAblationMisplacedSeD, moveAt)
	if rec == nil {
		t.Fatal("no dispatch after the move — the scenario no longer exercises the guarantee")
	}
	if !rec.PredictedByModel {
		t.Fatalf("first post-move dispatch fell back to advertised power: %+v", rec)
	}
}

// TestReplanMirrorDeterministic: two identical live-replanning campaigns
// produce identical traces — the virtual-time protocol mirror is
// deterministic, making the chaos scenarios reproducible.
func TestReplanMirrorDeterministic(t *testing.T) {
	run := func() *ExperimentResult {
		cfg := a8Config()
		cfg.NRequests = 40
		cfg.Policy = scheduler.NewPowerAware()
		cfg.Forecast = true
		cfg.TruePowerFactor = CanonicalSkew
		cfg.CoRI.HalfLife = TrainingHalfLife
		cfg.ReplanIntervalS = 4 * 3600
		cfg.LiveParent = map[string]string{"Sophia2": "LA-grillon"}
		cfg.DriftAtS = 7200
		cfg.DriftPowerFactor = map[string]float64{"Lille1": 0.4}
		res, err := RunExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalS != b.TotalS || len(a.Replans) != len(b.Replans) {
		t.Fatalf("nondeterministic mirror: totals %.6f vs %.6f, replans %d vs %d",
			a.TotalS, b.TotalS, len(a.Replans), len(b.Replans))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.SeD != rb.SeD || ra.StartS != rb.StartS || ra.EndS != rb.EndS {
			t.Fatalf("record %d diverges: %+v vs %+v", i, ra, rb)
		}
	}
	for i := range a.Replans {
		ea, eb := a.Replans[i], b.Replans[i]
		if ea.AtS != eb.AtS || ea.PowerUpdates != eb.PowerUpdates || len(ea.Moved) != len(eb.Moved) {
			t.Fatalf("replan event %d diverges: %+v vs %+v", i, ea, eb)
		}
	}
}

// TestReplanRequiresForecast guards the config contract.
func TestReplanRequiresForecast(t *testing.T) {
	cfg := DefaultExperiment(scheduler.NewPowerAware())
	cfg.NRequests = 2
	cfg.ReplanIntervalS = 3600
	if _, err := RunExperiment(cfg); err == nil {
		t.Fatal("ReplanIntervalS without Forecast must be rejected")
	}
}

// TestDriftChangesTrueSpeedOnly checks the drift event rescales delivered
// speed while the advertised estimate stays put — only measurement can see
// it.
func TestDriftChangesTrueSpeedOnly(t *testing.T) {
	base := func() ExperimentConfig {
		cfg := DefaultExperiment(scheduler.NewRoundRobin())
		cfg.NRequests = 22
		cfg.ArrivalGapS = 3600 // spaced, so late solves run post-drift
		return cfg
	}
	honest, err := RunExperiment(base())
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.DriftAtS = 1
	cfg.DriftPowerFactor = map[string]float64{"Lille1": 0.5}
	drifted, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same dispatch pattern (advertised powers unchanged, round-robin), but
	// Lille1's solves take twice as long.
	slower := 0
	for i := range honest.Records {
		h, d := honest.Records[i], drifted.Records[i]
		if h.SeD != d.SeD {
			t.Fatalf("drift changed the dispatch pattern: record %d %s vs %s", i, h.SeD, d.SeD)
		}
		if h.SeD == "Lille1" && d.DurationS() > 1.9*h.DurationS() {
			slower++
		}
	}
	if slower == 0 {
		t.Fatal("drift never slowed a Lille1 solve")
	}
}

// Migrations flattens the live arm's migration events: SeD name → virtual
// time of its move.
func (r ReplanAblationResult) Migrations() map[string]float64 {
	out := make(map[string]float64)
	for _, ev := range r.Live.Replans {
		for _, sed := range ev.Moved {
			if _, dup := out[sed]; !dup {
				out[sed] = ev.AtS
			}
		}
	}
	return out
}
