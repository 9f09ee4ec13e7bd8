package simgrid

import (
	"fmt"

	"repro/internal/cori"
	"repro/internal/deploy"
	"repro/internal/scheduler"
)

// This file runs the live-replanning ablation (A8): the paper's deployments
// are planned once and frozen, and the A6 ablation showed how much an
// *offline* replan (retrain, recompute the plan, restart everything) buys on
// a miscalibrated platform. A8 asks the sharper question the live-migration
// protocol answers: how much of that win does a long-lived hierarchy recover
// by replanning *itself*, mid-campaign, without a restart — periodic
// deploy.Replan passes re-advertising measured powers and migrating
// misplaced SeDs live, models carried across each move.
//
// An honest accounting of the two legs: in the simulator, SeD placement is
// latency-neutral (estimates and transfer times never read the parent), so
// the makespan gain of the live arm comes from the measured-power refreshes;
// the migration leg costs it a drain pause and exists to prove the protocol
// under measurement — the move happens mid-campaign, the model rides the
// snapshot round-trip, and the post-move forecast assertions hold. In the
// live middleware the placement additionally carries the §3.1 WAN-traffic
// cost that deploy.Plan.WANMessagesPerRequest scores.

// ReplanAblationConfig is empty: the A8 scenario is fixed by the
// constants below. The type stays because the repository benchmark
// (bench/suite.go) passes its zero value to RunReplanAblation.
type ReplanAblationConfig struct{}

// The A8 scenario, exported so a caller printing the setup reads the values
// the ablation ran.
const (
	// ReplanAblationIntervalS is the live arm's replanning cadence: by the
	// first pass the misplaced SeD has completed measured solves, so its
	// migration carries a trusted model.
	ReplanAblationIntervalS = 6 * 3600.0
	// ReplanAblationMisplacedSeD is deployed under the wrong LA,
	// ReplanAblationMisplacedParent, at bring-up, so the live arm exercises
	// a real migration, not just power refreshes.
	ReplanAblationMisplacedSeD    = "Sophia2"
	ReplanAblationMisplacedParent = "LA-grillon"
	// ReplanAblationDriftSeD degrades to ReplanAblationDriftFactor of its
	// power at ReplanAblationDriftAtS — before the phase-2 burst, so the
	// whole campaign runs on a platform no deployment file describes.
	ReplanAblationDriftSeD    = "Lille1"
	ReplanAblationDriftFactor = 0.4
	ReplanAblationDriftAtS    = 2 * 3600.0
)

// TrainingRounds is how many campaigns a trained arm runs: TrainingRounds-1
// train the monitors, the last one measures. A8 and A9 always run it;
// RunForecastAblation, RunDeployAblation and RunWarmStartAblation take their
// count as an argument.
const TrainingRounds = 2

// ReplanAblationResult compares three arms on the same drifting,
// miscalibrated platform (CanonicalSkew plus a mid-campaign drift event),
// all scheduled by the power-aware plug-in so the only difference is what
// the planner told it:
//
//   - Static: the hand-planned deployment, frozen — advertised powers
//     believed for the whole campaign.
//   - Live: the same cold start, but the hierarchy replans itself every
//     ReplanAblationIntervalS from its own in-flight measurements and
//     migrates SeDs online (the diet.Agent.ApplyPlan mirror).
//   - Offline: the A6 gold standard — TrainingRounds-1 full training
//     campaigns, then a restart with the measured plan applied from t=0.
type ReplanAblationResult struct {
	Static  *ExperimentResult
	Live    *ExperimentResult
	Offline *ExperimentResult

	// Changes is what the offline replan moved (deploy.Replan diff).
	Changes []deploy.Change
}

// LiveGainPct is the makespan saving of live replanning over the frozen
// static plan — what the migration protocol buys without any restart.
func (r ReplanAblationResult) LiveGainPct() float64 {
	return 100 * (r.Static.TotalS - r.Live.TotalS) / r.Static.TotalS
}

// OfflineGainPct is the offline-replan saving over the static plan — the
// restart-shaped upper reference.
func (r ReplanAblationResult) OfflineGainPct() float64 {
	return 100 * (r.Static.TotalS - r.Offline.TotalS) / r.Static.TotalS
}

// RecoveryPct is how much of the offline-replan win live replanning
// recovered without a restart (can exceed 100 when drift, which offline
// training cannot see, makes the live arm the better plan).
func (r ReplanAblationResult) RecoveryPct() float64 {
	offline := r.Static.TotalS - r.Offline.TotalS
	if offline <= 0 {
		return 0
	}
	return 100 * (r.Static.TotalS - r.Live.TotalS) / offline
}

// FirstPostMoveForecastTrusted reports whether every migrated SeD both kept
// a trusted model through its move (the snapshot round-trip) and had its
// first post-move dispatch predicted by that model rather than the
// advertised-power fallback — the "no retraining after a move" guarantee.
// The reason string names the first violation.
func (r ReplanAblationResult) FirstPostMoveForecastTrusted() (bool, string) {
	moved := 0
	for _, ev := range r.Live.Replans {
		for _, sed := range ev.Moved {
			moved++
			if !ev.MovedModelTrusted[sed] {
				return false, fmt.Sprintf("%s's model came out of the %.0fs move untrusted", sed, ev.AtS)
			}
			rec := r.Live.FirstRecordOn(sed, ev.AtS)
			if rec == nil {
				continue // nothing more was dispatched there; nothing to mispredict
			}
			if !rec.PredictedByModel {
				return false, fmt.Sprintf("%s's first post-move dispatch (req %d) fell back to advertised power", sed, rec.ID)
			}
		}
	}
	if moved == 0 {
		return false, "the live arm never migrated a SeD"
	}
	return true, ""
}

// RunReplanAblation runs A8 on the given configuration template (Policy,
// Forecast, replanning, drift and placement fields are overridden per arm).
func RunReplanAblation(mkCfg func() ExperimentConfig, _ ReplanAblationConfig) (*ReplanAblationResult, error) {
	base := func() ExperimentConfig {
		cfg := mkCfg()
		cfg.Policy = scheduler.NewPowerAware()
		// Every arm carries monitors: the static arm for instrumentation
		// parity (nothing reads them), the others to measure.
		cfg.Forecast = true
		cfg.TruePowerFactor = CanonicalSkew
		cfg.DriftAtS = ReplanAblationDriftAtS
		cfg.DriftPowerFactor = map[string]float64{ReplanAblationDriftSeD: ReplanAblationDriftFactor}
		cfg.LiveParent = map[string]string{ReplanAblationMisplacedSeD: ReplanAblationMisplacedParent}
		// Campaigns span tens of virtual hours; measure on planning timescales.
		cfg.CoRI.HalfLife = TrainingHalfLife
		// The paper's all-at-once burst pre-makes every dispatch decision
		// before the first replan pass can fire; A8 paces submissions so
		// mid-campaign adaptation has decisions left to improve (the same
		// pacing the A4 sweeps study).
		if cfg.ArrivalGapS <= 0 {
			cfg.ArrivalGapS = 600
		}
		return cfg
	}
	out := &ReplanAblationResult{}
	var err error

	// Static arm: the frozen plan.
	cfg := base()
	if out.Static, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation static arm: %w", err)
	}

	// Live arm: same cold start, replanning itself mid-campaign.
	cfg = base()
	cfg.ReplanIntervalS = ReplanAblationIntervalS
	if out.Live, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation live arm: %w", err)
	}

	// Offline arm: TrainingRounds-1 training campaigns (static plan, like
	// the real operating point a deployment trains at), then a restart with
	// the measured plan applied from t=0. The restart also fixes the
	// misplaced SeD — that is what redeploying from the plan does.
	tcfg := base()
	tcfg.Monitors = make(map[string]*cori.Monitor, len(tcfg.Deployment.SeDs))
	baseSeed := tcfg.Seed
	for r := 0; r < TrainingRounds-1; r++ {
		tcfg.Seed = baseSeed + 1000 + int64(r)
		if _, err = RunExperiment(tcfg); err != nil {
			return nil, fmt.Errorf("simgrid: replan ablation training round %d: %w", r+1, err)
		}
	}
	plan, changes, err := deploy.Replan(tcfg.Deployment, deploy.Options{
		Capabilities: deploy.MonitorSource(tcfg.Monitors, phase2Service),
	})
	if err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation offline replan: %w", err)
	}
	out.Changes = changes
	mcfg := base()
	mcfg.Seed = baseSeed
	mcfg.PlannedPower = plan.PowerByName()
	mcfg.LiveParent = nil // the restart redeploys everything where planned
	if out.Offline, err = RunExperiment(mcfg); err != nil {
		return nil, fmt.Errorf("simgrid: replan ablation offline arm: %w", err)
	}
	return out, nil
}
