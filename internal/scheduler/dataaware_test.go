package scheduler

import (
	"math/rand"
	"sort"
	"testing"
)

// randomEstimates builds a randomized platform: servers with mixed power,
// queue state, forecast history, and a random replica layout — a server is
// "data-local" when its InputTransferSeconds is 0.
func randomEstimates(rng *rand.Rand, withTransfers bool) []Estimate {
	n := 2 + rng.Intn(10)
	ests := make([]Estimate, n)
	for i := range ests {
		e := Estimate{
			ServerID:    string(rune('A'+i)) + "sed",
			Service:     "ramsesZoom1",
			Capacity:    1 + rng.Intn(3),
			Running:     rng.Intn(3),
			QueueLen:    rng.Intn(5),
			PowerGFlops: 10 + 90*rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			e.HasForecast = true
			e.ForecastSamples = 1 + rng.Intn(50)
			e.EWMASolveSeconds = 10 + 1000*rng.Float64()
			e.ForecastBaseS = 5 * rng.Float64()
			e.ForecastPerGFlopS = 0.2 * rng.Float64()
			e.ForecastConfidence = rng.Float64()
			e.PendingWorkSeconds = 2000 * rng.Float64()
		}
		if withTransfers && rng.Intn(2) == 0 {
			e.InputTransferSeconds = 1000 * rng.Float64()
		}
		ests[i] = e
	}
	return ests
}

// completionCost is the test's own view of a server's predicted cost for the
// request — compute + wait + transfer — written out independently of the
// policies' internals.
func completionCost(e Estimate, work float64) float64 {
	dur, _ := e.PredictSeconds(work)
	cap := float64(e.Capacity)
	if cap < 1 {
		cap = 1
	}
	wait, trusted := e.TrustedDrainSeconds()
	if !trusted {
		wait = float64(e.QueueLen+e.Running) * dur / cap
	}
	return wait + dur + e.InputTransferSeconds
}

// TestDataAwareNeverWorseThanDataLocal is the ranking property: whatever the
// platform and replica layout, the server a data-aware policy picks first
// never has a strictly worse predicted (compute + wait + transfer) cost than
// any data-local candidate. A policy that overvalued locality or ignored the
// transfer term would both fail it.
func TestDataAwareNeverWorseThanDataLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ca := NewContentionAware()
	for trial := 0; trial < 500; trial++ {
		ests := randomEstimates(rng, true)
		req := Request{Service: "ramsesZoom1", WorkGFlops: 100 + 40000*rng.Float64()}
		order := ca.Rank(req, ests)
		if len(order) != len(ests) {
			t.Fatalf("trial %d: rank returned %d of %d servers", trial, len(order), len(ests))
		}
		chosen := completionCost(ests[order[0]], req.WorkGFlops)
		for i, e := range ests {
			if e.InputTransferSeconds != 0 {
				continue // not data-local
			}
			local := completionCost(e, req.WorkGFlops)
			if chosen > local+1e-9 {
				t.Fatalf("trial %d: chose %s at cost %.3f over data-local %s at cost %.3f\nests[%d]=%+v",
					trial, ests[order[0]].ServerID, chosen, e.ServerID, local, i, e)
			}
		}
	}
}

// preA13Score reproduces the policies' scoring exactly as it was before the
// transfer term existed.
func preA13Score(name string, e Estimate, work float64) float64 {
	dur, _ := e.PredictSeconds(work)
	cap := float64(e.Capacity)
	if cap < 1 {
		cap = 1
	}
	switch name {
	case "forecastaware":
		return float64(e.QueueLen+e.Running+1) * dur / cap
	default: // contentionaware
		wait, trusted := e.TrustedDrainSeconds()
		if !trusted {
			wait = float64(e.QueueLen+e.Running) * dur / cap
		}
		return wait + dur
	}
}

// TestDataBlindRankingUnchanged guards the data-blind contract: with no
// registered datasets (every InputTransferSeconds zero), both forecast
// policies rank exactly as their pre-A13 formulas did, order for order.
func TestDataBlindRankingUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	policies := []Policy{NewForecastAware(), NewContentionAware()}
	for trial := 0; trial < 500; trial++ {
		ests := randomEstimates(rng, false)
		req := Request{Service: "ramsesZoom1", WorkGFlops: 100 + 40000*rng.Float64()}
		for _, p := range policies {
			got := p.Rank(req, ests)
			want := byServerID(ests)
			sort.SliceStable(want, func(a, b int) bool {
				return preA13Score(p.Name(), ests[want[a]], req.WorkGFlops) <
					preA13Score(p.Name(), ests[want[b]], req.WorkGFlops)
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d, %s: rank diverged from pre-A13 order at %d: got %v want %v",
						trial, p.Name(), i, got, want)
				}
			}
		}
	}
}

// TestTransferCostBreaksTies pins the headline behaviour: two otherwise
// identical servers, one data-local — the data-local one must now win the
// tie it used to lose to ServerID order.
func TestTransferCostBreaksTies(t *testing.T) {
	base := Estimate{
		Service: "ramsesZoom1", Capacity: 1, PowerGFlops: 50,
	}
	far := base
	far.ServerID = "Asame" // wins pure ServerID ties
	far.InputTransferSeconds = 120
	near := base
	near.ServerID = "Bsame"
	for _, p := range []Policy{NewForecastAware(), NewContentionAware()} {
		order := p.Rank(Request{Service: "ramsesZoom1", WorkGFlops: 1000}, []Estimate{far, near})
		if order[0] != 1 {
			t.Fatalf("%s: data-local server must win the tie, got order %v", p.Name(), order)
		}
	}
}
