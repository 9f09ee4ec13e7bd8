package deploy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cori"
	"repro/internal/platform"
	"repro/internal/scheduler"
)

// Capability is one SeD's delivered-power measurement, as produced by the
// CoRI duration-vs-work fit: what the server was observed to sustain, as
// opposed to what its deployment file advertises.
type Capability struct {
	MeasuredGFlops float64 // delivered power; 0 = no usable measurement
	Confidence     float64 // (0,1] trust in the measurement, decaying with staleness
}

// CapabilitySource reports measured capabilities by SeD name. ok is false
// when the source has never observed that SeD, in which case the planner
// falls back to the advertised power.
type CapabilitySource func(sed string) (Capability, bool)

// MonitorSource adapts per-SeD CoRI monitors (keyed by SeD name, as
// simgrid.ExperimentConfig.Monitors and live tooling keep them) to a
// CapabilitySource for one service.
func MonitorSource(monitors map[string]*cori.Monitor, service string) CapabilitySource {
	return func(sed string) (Capability, bool) {
		m := monitors[sed]
		if m == nil {
			return Capability{}, false
		}
		model, ok := m.Model(service)
		if !ok {
			return Capability{}, false
		}
		delivered := model.DeliveredGFlops()
		if delivered <= 0 {
			return Capability{}, false
		}
		return Capability{MeasuredGFlops: delivered, Confidence: model.Confidence}, true
	}
}

// Options tunes plan construction beyond the static topology rules.
type Options struct {
	// Capabilities optionally supplies measured per-SeD delivered power; the
	// plan then places SeDs by effective power — the confidence-weighted
	// blend of measurement and advertisement — instead of the advertised
	// figure alone. Nil keeps the static (advertised-power) behaviour.
	Capabilities CapabilitySource
}

// effective blends the advertised power with a measured capability:
// confidence-weighted toward the measurement, falling back to the advertised
// power when there is no measurement trusted at scheduler.MinConfidence. It
// returns the blended power plus the raw measurement and confidence for
// reporting (both 0 on fallback).
func (o Options) effective(sed string, advertised float64) (eff, measured, conf float64) {
	if o.Capabilities == nil {
		return advertised, 0, 0
	}
	c, ok := o.Capabilities(sed)
	if !ok || c.MeasuredGFlops <= 0 || c.Confidence < scheduler.MinConfidence {
		return advertised, 0, 0
	}
	w := c.Confidence
	if w > 1 {
		w = 1
	}
	return w*c.MeasuredGFlops + (1-w)*advertised, c.MeasuredGFlops, c.Confidence
}

// rankByPower orders SeD names best-first by a power map, ties broken by
// name, and returns 1-based ranks.
func rankByPower(power map[string]float64) map[string]int {
	names := make([]string, 0, len(power))
	for n := range power {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if power[names[i]] != power[names[j]] {
			return power[names[i]] > power[names[j]]
		}
		return names[i] < names[j]
	})
	rank := make(map[string]int, len(names))
	for i, n := range names {
		rank[n] = i + 1
	}
	return rank
}

// Change records one SeD whose placement input changed between the static
// plan and a measured-power replan: its effective power moved, and with it
// its position in the delivered-throughput ordering that decides where work
// lands.
type Change struct {
	SeD      string
	OldPower float64 // advertised power the static plan placed by
	NewPower float64 // confidence-blended effective power after training
	OldRank  int     // 1-based position in the static power ordering
	NewRank  int     // position in the measured ordering
	// OldParent and NewParent record a placement move when the change came
	// from a live-topology diff (DiffLive); both empty in a pure replan
	// power diff.
	OldParent string
	NewParent string
}

// String renders the change the way cmd/deployplan prints it.
func (c Change) String() string {
	if c.NewParent != "" && c.NewParent != c.OldParent {
		return fmt.Sprintf("%s: parent %s → %s at %.1f GFlops",
			c.SeD, c.OldParent, c.NewParent, c.NewPower)
	}
	return fmt.Sprintf("%s: %.1f → %.1f GFlops, rank %d → %d",
		c.SeD, c.OldPower, c.NewPower, c.OldRank, c.NewRank)
}

// Replan rebuilds the topology-aware plan with measured capabilities and
// diffs it against the static plan: which SeDs' effective powers moved
// materially (more than 1%) or changed position in the power ranking. The
// returned plan is the measured one; the change list is what a re-deployment
// would alter — the "exploit richer server information" loop of the paper's
// conclusion closed at the planning layer.
func Replan(d platform.Deployment, opts Options) (*Plan, []Change, error) {
	static, err := TopologyWith(d, Options{})
	if err != nil {
		return nil, nil, err
	}
	measured, err := TopologyWith(d, opts)
	if err != nil {
		return nil, nil, err
	}
	oldPower := make(map[string]float64, len(static.SeDs))
	for _, s := range static.SeDs {
		oldPower[s.Name] = s.Power
	}
	newPower := make(map[string]float64, len(measured.SeDs))
	for _, s := range measured.SeDs {
		newPower[s.Name] = s.Power
	}
	oldRank := rankByPower(oldPower)
	newRank := rankByPower(newPower)
	var changes []Change
	for _, s := range static.SeDs {
		op, np := oldPower[s.Name], newPower[s.Name]
		moved := op > 0 && math.Abs(np-op)/op > 0.01
		if moved || oldRank[s.Name] != newRank[s.Name] {
			changes = append(changes, Change{
				SeD: s.Name, OldPower: op, NewPower: np,
				OldRank: oldRank[s.Name], NewRank: newRank[s.Name],
			})
		}
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].NewRank < changes[j].NewRank })
	return measured, changes, nil
}
