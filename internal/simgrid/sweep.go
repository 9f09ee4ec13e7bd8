package simgrid

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/scheduler"
)

// This file extends the paper's evaluation with capacity sweeps: the
// experiment re-run with the deployment scaled to more SeDs per cluster, or
// with a different campaign size — the "what would Grid'5000 have needed"
// questions the paper's conclusion gestures at.

// ScaledDeployment replicates every SeD of the paper deployment mult times
// (Nancy1#1, Nancy1#2, …), keeping sites, clusters and per-SeD power — as if
// each cluster reservation had been mult× larger.
func ScaledDeployment(mult int) (platform.Deployment, error) {
	if mult < 1 {
		return platform.Deployment{}, fmt.Errorf("simgrid: multiplier must be >= 1, got %d", mult)
	}
	base := platform.PaperDeployment()
	if mult == 1 {
		return base, nil
	}
	out := platform.Deployment{MASite: base.MASite, LAs: base.LAs}
	for _, s := range base.SeDs {
		for k := 1; k <= mult; k++ {
			c := s
			c.Name = fmt.Sprintf("%s#%d", s.Name, k)
			out.SeDs = append(out.SeDs, c)
		}
	}
	return out, nil
}

// SweepPoint is one row of a scaling sweep.
type SweepPoint struct {
	SeDs          int
	Requests      int
	MakespanHours float64
	Speedup       float64
	MeanLatencyMS float64
}

// SweepSeDs reruns the campaign with the deployment scaled by each
// multiplier, reporting how the makespan falls as servers are added.
func SweepSeDs(policy func() scheduler.Policy, multipliers []int, requests int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, m := range multipliers {
		dep, err := ScaledDeployment(m)
		if err != nil {
			return nil, err
		}
		cfg := DefaultExperiment(policy())
		cfg.Deployment = dep
		cfg.NRequests = requests
		p, err := sweepPoint(cfg)
		if err != nil {
			return nil, fmt.Errorf("simgrid: sweep point mult=%d: %w", m, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// SweepRequests reruns the campaign at several campaign sizes on the paper
// deployment, showing how makespan and queueing grow with the workload.
func SweepRequests(policy func() scheduler.Policy, sizes []int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, n := range sizes {
		cfg := DefaultExperiment(policy())
		cfg.NRequests = n
		p, err := sweepPoint(cfg)
		if err != nil {
			return nil, fmt.Errorf("simgrid: sweep point n=%d: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// sweepPoint runs one campaign of a sweep and summarises it.
func sweepPoint(cfg ExperimentConfig) (SweepPoint, error) {
	res, err := RunExperiment(cfg)
	if err != nil {
		return SweepPoint{}, err
	}
	var latSum float64
	for _, r := range res.Records {
		latSum += r.LatencyMS
	}
	return SweepPoint{
		SeDs:          len(cfg.Deployment.SeDs),
		Requests:      cfg.NRequests,
		MakespanHours: res.MakespanHours(),
		Speedup:       res.SequentialS / res.TotalS,
		MeanLatencyMS: latSum / float64(len(res.Records)),
	}, nil
}
