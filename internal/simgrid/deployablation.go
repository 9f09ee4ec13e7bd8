package simgrid

import (
	"fmt"
	"time"

	"repro/internal/cori"
	"repro/internal/deploy"
	"repro/internal/scheduler"
)

// This file runs the deployment-and-reservation ablation (A6): the two
// static layers the CoRI forecasts close — deployment planning
// (internal/deploy placing SeDs by measured rather than advertised power)
// and batch reservation sizing (internal/batch deriving walltimes from
// duration forecasts instead of fixed grants) — compared end to end on a
// miscalibrated platform, in virtual time.

// TrainingHalfLife is the CoRI confidence half-life campaign-scale training
// uses: a campaign spans tens of virtual hours, so the default 1 h half-life
// would decay its early measurements to nothing before a replan reads them.
// Planning works on campaign timescales.
const TrainingHalfLife = 48 * time.Hour

// DeployAblationResult compares static planning + fixed grants against
// measured-power planning + forecast-sized reservations. All arms run the
// power-aware plug-in and BatchMode, so the only differences are the powers
// the planner advertised and how walltimes were sized — isolating exactly
// what PR 2's two integrations buy.
type DeployAblationResult struct {
	// Honest is the reference arm: static plan, fixed grants, a platform
	// whose advertised powers are true.
	Honest *ExperimentResult
	// Static is the paper's hand-planned pipeline on the CanonicalSkew
	// platform: the misled plan floods the degraded SeDs and the fixed
	// grants, sized for advertised speed, are killed at walltime and
	// requeued.
	Static *ExperimentResult
	// Trained re-plans from monitors trained over Rounds-1 campaigns
	// (deploy.Replan feeding PlannedPower) and sizes every reservation from
	// the per-SeD forecasts (BatchForecast) on the same skewed platform.
	Trained *ExperimentResult

	// Changes is what the measured-power replan moved (deploy.Replan diff).
	Changes []deploy.Change
	// PlannedPower is the effective power map the trained arm advertised.
	PlannedPower map[string]float64
	// Rounds is the number of campaigns run in the trained arm, including
	// the measured one.
	Rounds int
}

// MakespanGainPct is the makespan saving of the trained arm over the static
// arm on the miscalibrated platform — the end-to-end value of closing the
// forecast loop at both layers.
func (r DeployAblationResult) MakespanGainPct() float64 {
	return 100 * (r.Static.TotalS - r.Trained.TotalS) / r.Static.TotalS
}

// ReservationGainPct is the overrun+pad cost saving (wasted killed-grant
// compute plus idle pad) of forecast-sized reservations over fixed grants.
func (r DeployAblationResult) ReservationGainPct() float64 {
	static := r.Static.Batch.OverrunPadCostS()
	if static <= 0 {
		return 0
	}
	return 100 * (static - r.Trained.Batch.OverrunPadCostS()) / static
}

// RunDeployAblation runs the comparison on the given configuration template
// (Policy, Forecast and the Batch* fields are overridden per arm; the
// template's BatchGrantS and BatchFixedWallS are kept, with the
// DefaultExperiment values substituted when unset). rounds ≥ 2 gives the
// trained arm rounds-1 training campaigns before the measured one; the
// training seeds are disjoint from the measured seed, as in
// RunExperimentRounds.
func RunDeployAblation(mkCfg func() ExperimentConfig, rounds int) (*DeployAblationResult, error) {
	if rounds < 2 {
		rounds = 2
	}
	base := func() ExperimentConfig {
		cfg := mkCfg()
		cfg.Policy = scheduler.NewPowerAware()
		cfg.BatchMode = true
		if cfg.BatchGrantS <= 0 {
			cfg.BatchGrantS = 30
		}
		if cfg.BatchFixedWallS <= 0 {
			cfg.BatchFixedWallS = defaultBatchWallS
		}
		return cfg
	}
	out := &DeployAblationResult{Rounds: rounds}
	var err error

	cfg := base()
	if out.Honest, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: deploy ablation honest arm: %w", err)
	}

	cfg = base()
	cfg.TruePowerFactor = CanonicalSkew
	if out.Static, err = RunExperiment(cfg); err != nil {
		return nil, fmt.Errorf("simgrid: deploy ablation static arm: %w", err)
	}

	// Trained arm: rounds-1 training campaigns on the skewed platform with
	// monitors attached (still statically planned and fixed-granted — the
	// operating point a real deployment trains at), then one measured round
	// re-planned from the trained models with forecast-sized reservations.
	tcfg := base()
	tcfg.TruePowerFactor = CanonicalSkew
	tcfg.Forecast = true
	tcfg.CoRI.HalfLife = TrainingHalfLife
	tcfg.Monitors = make(map[string]*cori.Monitor, len(tcfg.Deployment.SeDs))
	baseSeed := tcfg.Seed
	for r := 0; r < rounds-1; r++ {
		tcfg.Seed = baseSeed + 1000 + int64(r)
		if _, err = RunExperiment(tcfg); err != nil {
			return nil, fmt.Errorf("simgrid: deploy ablation training round %d: %w", r+1, err)
		}
	}
	// Re-plan from the trained monitors: the phase-2 service dominates the
	// campaign, so its models drive placement.
	plan, changes, err := deploy.Replan(tcfg.Deployment, deploy.Options{
		Capabilities: deploy.MonitorSource(tcfg.Monitors, phase2Service),
	})
	if err != nil {
		return nil, fmt.Errorf("simgrid: deploy ablation replan: %w", err)
	}
	out.Changes = changes
	out.PlannedPower = plan.PowerByName()

	tcfg.Seed = baseSeed
	tcfg.PlannedPower = out.PlannedPower
	tcfg.BatchForecast = true
	if out.Trained, err = RunExperiment(tcfg); err != nil {
		return nil, fmt.Errorf("simgrid: deploy ablation trained arm: %w", err)
	}
	return out, nil
}
