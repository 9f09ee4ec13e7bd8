package simgrid

import "fmt"

// This file runs the federation ablation (A12; A11 stays reserved for
// workflow campaigns): everything the repo built so far funnels every
// submission through one Master Agent — the exact bottleneck the DIET
// papers built the multi-MA mesh to avoid. A12 prices the mesh: the same
// open-loop request stream, arriving faster than one MA can serialize
// finding phases but within the federation's capacity, replayed against a
// single MA and against N federated MAs with sticky routing and peer
// forwarding. The single arm saturates — its queue grows for the whole run
// and p99 submit latency is dominated by queueing — while the federation
// keeps up, paying only the forwarding overhead on foreign services.

// FederationAblationConfig is empty: A12 compares one MA with FederatedMAs
// under the fixed Federation* stream. The type stays because the repository
// benchmark (bench/suite.go) passes its zero value to RunFederationAblation.
type FederationAblationConfig struct{}

// FederatedMAs is the federated arm's width.
const FederatedMAs = 4

// FederationAblationResult compares the two arms of the same stream.
type FederationAblationResult struct {
	Single    *FederationResult // 1 MA
	Federated *FederationResult // FederatedMAs federated MAs
}

// ThroughputGainX is the saturation-throughput multiple of federating:
// federated completed findings per second over the single MA's.
func (r *FederationAblationResult) ThroughputGainX() float64 {
	if s := r.Single.ThroughputPerSec(); s > 0 {
		return r.Federated.ThroughputPerSec() / s
	}
	return 0
}

// P99GainX is how many times higher the single MA's p99 submit latency is
// than the federation's.
func (r *FederationAblationResult) P99GainX() float64 {
	if f := r.Federated.P99LatencyS(); f > 0 {
		return r.Single.P99LatencyS() / f
	}
	return 0
}

// RunFederationAblation runs A12: the same submission stream against one MA
// and against FederatedMAs federated MAs.
func RunFederationAblation(FederationAblationConfig) (*FederationAblationResult, error) {
	out := &FederationAblationResult{}
	var err error
	if out.Single, err = RunFederation(FederationConfig{MAs: 1}); err != nil {
		return nil, fmt.Errorf("simgrid: federation ablation single arm: %w", err)
	}
	if out.Federated, err = RunFederation(FederationConfig{MAs: FederatedMAs}); err != nil {
		return nil, fmt.Errorf("simgrid: federation ablation federated arm: %w", err)
	}
	return out, nil
}
