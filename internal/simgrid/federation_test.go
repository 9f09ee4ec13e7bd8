package simgrid

import (
	"math"
	"testing"
)

// TestRunFederation sanity-checks the federated submission plane itself:
// a single MA forwards nothing, a federation forwards exactly the foreign
// share of the stream, and runs are deterministic.
func TestRunFederation(t *testing.T) {
	single, err := RunFederation(FederationConfig{MAs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if single.Forwards != 0 {
		t.Errorf("single MA forwarded %d requests, want 0", single.Forwards)
	}
	if len(single.Requests) != FederationRequests {
		t.Fatalf("recorded %d requests, want %d", len(single.Requests), FederationRequests)
	}
	for i, r := range single.Requests {
		if r.DoneS <= r.ArriveS {
			t.Fatalf("request %d finished at %g before arriving at %g", i, r.DoneS, r.ArriveS)
		}
	}

	fed, err := RunFederation(FederationConfig{MAs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fed.Forwards == 0 {
		t.Error("a 4-MA federation with foreign services forwarded nothing")
	}
	forwarded := 0
	for _, r := range fed.Requests {
		if r.Forwarded {
			forwarded++
		}
	}
	if forwarded != fed.Forwards {
		t.Errorf("forward counter %d disagrees with %d forwarded records", fed.Forwards, forwarded)
	}

	again, err := RunFederation(FederationConfig{MAs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalS != fed.TotalS || again.P99LatencyS() != fed.P99LatencyS() {
		t.Errorf("virtual-time run not deterministic: (%g, %g) vs (%g, %g)",
			fed.TotalS, fed.P99LatencyS(), again.TotalS, again.P99LatencyS())
	}

	if _, err := RunFederation(FederationConfig{MAs: 0}); err == nil {
		t.Error("zero MAs accepted")
	}
}

// TestRunFederationAblation is the A12 acceptance gate: under a stream that
// saturates one MA but not the federation, N federated MAs must beat the
// single MA on both saturation throughput and p99 submit latency.
func TestRunFederationAblation(t *testing.T) {
	res, err := RunFederationAblation(FederationAblationConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Defaults give ~2.5x throughput and ~10x p99 (the single arm's queue
	// grows for the whole run); assert with wide margins so cost tweaks
	// don't flake the gate, while still requiring a decisive win.
	if gain := res.ThroughputGainX(); gain < 1.5 {
		t.Errorf("federation throughput gain %.2fx, want >= 1.5x (single %.1f/s, federated %.1f/s)",
			gain, res.Single.ThroughputPerSec(), res.Federated.ThroughputPerSec())
	}
	if gain := res.P99GainX(); gain < 2 {
		t.Errorf("federation p99 gain %.2fx, want >= 2x (single %.2fs, federated %.2fs)",
			gain, res.Single.P99LatencyS(), res.Federated.P99LatencyS())
	}
	if res.Single.Forwards != 0 || res.Federated.Forwards == 0 {
		t.Errorf("forwards: single %d (want 0), federated %d (want > 0)",
			res.Single.Forwards, res.Federated.Forwards)
	}
	if res.Federated.MeanLatencyS() >= res.Single.MeanLatencyS() {
		t.Errorf("federated mean latency %.2fs not below single %.2fs",
			res.Federated.MeanLatencyS(), res.Single.MeanLatencyS())
	}
	if math.IsNaN(res.ThroughputGainX()) || math.IsInf(res.ThroughputGainX(), 0) {
		t.Error("throughput gain is not finite")
	}
}
