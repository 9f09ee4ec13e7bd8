package simgrid

import (
	"fmt"
	"strings"

	"repro/internal/scheduler"
)

// This file runs the failure ablation (A10): the paper ran its campaign on a
// grid that stayed up, but §7 names transparent fault tolerance as the open
// problem a production deployment cannot skip. A10 prices it: the same
// campaign is replayed under a canonical failure schedule — a mid-campaign
// crash with restart, a network partition, lost dispatches, a node that dies
// for good, and a long outage near the tail — once with the self-healing
// mirror armed (heartbeat detection, kill-and-requeue, snapshot warm
// restore) and once fragile, where work on a dead node waits for its restart
// or is simply lost. A healthy run is the zero-failure reference.

// FailureAblationConfig is empty: A10 replays CanonicalFailureSchedule with
// the recovery mirror's fixed timings. The type stays because the repository
// benchmark (bench/suite.go) passes its zero value to RunFailureAblation.
type FailureAblationConfig struct{}

// CanonicalFailureSchedule is the A10 schedule, timed against the
// canonical paced campaign (phase 1 ends ≈4 500 s; arrivals every ≈600 s for
// ≈60 000 s more):
//
//   - Nancy1 crashes at 3 h and restarts at 5 h — the crash-with-recovery
//     case, where healing requeues the dead work in seconds and restores the
//     node's forecast model from its snapshot.
//   - Sophia1 is partitioned from 7 h to 8 h — solves keep computing but
//     results wait; healing stops routing new work into the hole.
//   - Two dispatches to Toulouse1 vanish in flight at 10 h — healing
//     resubmits them, fragility never notices they are gone.
//   - Lille1 dies for good at 12 h — in the fragile arm its in-flight work
//     and every request later routed to it are lost outright.
//   - Lyon1-sag goes down from 15 h to 18 h, near the campaign tail — the
//     outage that separates the arms on makespan, because fragile clients
//     hang on it while healing reroutes within a heartbeat.
func CanonicalFailureSchedule() []FailureEvent {
	return []FailureEvent{
		{AtS: 10800, Kind: FailCrash, Node: "Nancy1"},
		{AtS: 18000, Kind: FailRestart, Node: "Nancy1"},
		{AtS: 25200, Kind: FailPartition, Node: "Sophia1"},
		{AtS: 28800, Kind: FailHeal, Node: "Sophia1"},
		{AtS: 36000, Kind: FailLoss, Node: "Toulouse1", Count: 2},
		{AtS: 43200, Kind: FailCrash, Node: "Lille1"},
		{AtS: 54000, Kind: FailCrash, Node: "Lyon1-sag"},
		{AtS: 64800, Kind: FailRestart, Node: "Lyon1-sag"},
	}
}

// FailureAblationResult compares three arms of the same campaign:
//
//   - Healthy: no failures — the reference cost of the platform.
//   - Healing: the failure schedule with the self-healing mirror armed.
//   - Fragile: the same schedule with no recovery at all.
type FailureAblationResult struct {
	Healthy *ExperimentResult
	Healing *ExperimentResult
	Fragile *ExperimentResult
}

// MakespanGainPct is the makespan saving of self-healing over the fragile
// hierarchy under the same failures.
func (r FailureAblationResult) MakespanGainPct() float64 {
	return 100 * (r.Fragile.TotalS - r.Healing.TotalS) / r.Fragile.TotalS
}

// SolvesSaved counts the requests self-healing completed that the fragile
// hierarchy lost outright.
func (r FailureAblationResult) SolvesSaved() int {
	return r.Fragile.SolvesLost - r.Healing.SolvesLost
}

// HealingOverheadPct is what the failures still cost the healing arm against
// the zero-failure reference — recovery is mitigation, not immunity.
func (r FailureAblationResult) HealingOverheadPct() float64 {
	return 100 * (r.Healing.TotalS - r.Healthy.TotalS) / r.Healthy.TotalS
}

// RestartsWarm reports whether every self-healing restart in the log came
// back with a trusted forecast model — the -cori-snapshot guarantee. The
// reason names the first cold rejoin.
func (r FailureAblationResult) RestartsWarm() (bool, string) {
	restarts := 0
	for _, e := range r.Healing.FailureLog {
		if e.Kind != "restart" {
			continue
		}
		restarts++
		if !strings.Contains(e.Detail, "model trusted=true") {
			return false, fmt.Sprintf("%s rejoined at %.0fs without a trusted model (%s)", e.Node, e.AtS, e.Detail)
		}
	}
	if restarts == 0 {
		return false, "the healing arm never restarted a node"
	}
	return true, ""
}

// RunFailureAblation runs A10 on the given configuration template. The
// template's policy, forecasting and failure fields are overridden per arm;
// everything else (work sizes, seed, pacing) is shared, so the schedules and
// seeds — not noise — separate the arms.
func RunFailureAblation(mkCfg func() ExperimentConfig, _ FailureAblationConfig) (*FailureAblationResult, error) {
	schedule := CanonicalFailureSchedule()
	base := func() ExperimentConfig {
		cfg := mkCfg()
		cfg.Policy = scheduler.NewPowerAware()
		cfg.Forecast = true
		// Campaigns span tens of virtual hours; measure on planning timescales.
		cfg.CoRI.HalfLife = TrainingHalfLife
		// Pace the paper's burst so the failures land on a live dispatch
		// stream rather than on decisions all made in the first second.
		if cfg.ArrivalGapS <= 0 {
			cfg.ArrivalGapS = 600
		}
		return cfg
	}
	out := &FailureAblationResult{}
	var err error

	cfg := base()
	if out.Healthy, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: failure ablation healthy arm: %w", err)
	}

	cfg = base()
	cfg.Failures = schedule
	cfg.SelfHealing = true
	if out.Healing, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: failure ablation healing arm: %w", err)
	}

	cfg = base()
	cfg.Failures = schedule
	if out.Fragile, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: failure ablation fragile arm: %w", err)
	}
	return out, nil
}
