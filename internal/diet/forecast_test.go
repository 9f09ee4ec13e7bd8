package diet

import (
	"testing"
	"time"

	"repro/internal/cori"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSeDEstimateCarriesForecast checks the full CoRI plumbing on one SeD:
// the client's work estimate rides the profile to the server, completed
// solves land in the monitor, and the next estimation vector carries the
// forecast extension.
func TestSeDEstimateCarriesForecast(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-fc1", LAs: []string{"LA1"},
		SeDs: []SeDSpec{{
			Name: "SeD-fc1", Parent: "LA1", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("double", 2*time.Millisecond, nil)},
		}},
		Local: true,
	})
	sed := d.SeDs[0]

	// Before any solve: a plain estimate, no forecast.
	if est := sed.Estimate("double").Est; est.HasForecast {
		t.Fatal("fresh SeD must not claim a forecast")
	}

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()
	for i := 0; i < 3; i++ {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := client.Call(p, WithWork(float64(1000*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}

	est := sed.Estimate("double").Est
	if !est.HasForecast || est.ForecastSamples != 3 {
		t.Fatalf("estimate after 3 solves: HasForecast=%v samples=%d, want true/3", est.HasForecast, est.ForecastSamples)
	}
	if est.EWMASolveSeconds <= 0 {
		t.Fatalf("EWMASolveSeconds = %g, want > 0", est.EWMASolveSeconds)
	}
	if est.ForecastConfidence <= 0 || est.ForecastConfidence > 1 {
		t.Fatalf("confidence %g out of range", est.ForecastConfidence)
	}
	if est.PendingWorkSeconds != 0 {
		t.Fatalf("idle SeD must forecast zero pending work, got %g", est.PendingWorkSeconds)
	}
	// The work estimates arrived with the profiles.
	model, ok := sed.Monitor().Model("double")
	if !ok {
		t.Fatal("monitor must hold the service model")
	}
	if model.Samples != 3 {
		t.Fatalf("monitor samples = %d, want 3", model.Samples)
	}
	met := sed.Monitor().Metrics("double")
	if met["EST_NBSAMPLES"] != 3 {
		t.Fatalf("EST_NBSAMPLES = %g, want 3", met["EST_NBSAMPLES"])
	}
}

// TestSubmitRanksByMeasuredSpeed deploys two SeDs whose advertised powers
// lie (the fast one advertises 1 GFlops, the slow one 100) under a
// forecast-aware MA. Cold, the ranking trusts the advertisement; after one
// warm-up solve on each server, the measured history must flip it.
func TestSubmitRanksByMeasuredSpeed(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-fc2", LAs: []string{"LA1"},
		Policy: scheduler.NewForecastAware(),
		SeDs: []SeDSpec{
			{Name: "SeD-fc2-slow", Parent: "LA1", PowerGFlops: 100,
				Services: []ServiceSpec{sleepService("double", 80*time.Millisecond, nil)}},
			{Name: "SeD-fc2-fast", Parent: "LA1", PowerGFlops: 1,
				Services: []ServiceSpec{sleepService("double", time.Millisecond, nil)}},
		},
		Local: true,
	})

	cold, err := d.MA.Submit(SubmitRequest{Service: "double", WorkGFlops: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Estimates[0].ServerID != "SeD-fc2-slow" {
		t.Fatalf("cold ranking must trust advertised power: got %s first", cold.Estimates[0].ServerID)
	}

	// One observed solve per SeD (bypassing the scheduler so both learn).
	for _, sed := range d.SeDs {
		p, _ := NewProfile("double", 0, 0, 1)
		p.SetScalarInt(0, 1, Volatile)
		if _, err := sed.Solve(p); err != nil {
			t.Fatal(err)
		}
	}

	warm, err := d.MA.Submit(SubmitRequest{Service: "double", WorkGFlops: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Estimates[0].ServerID != "SeD-fc2-fast" {
		t.Fatalf("measured history must outrank the advertisement: got %s first", warm.Estimates[0].ServerID)
	}
}

// TestEstimateDrainPricesOtherServices regression-tests the multi-service
// drain: a SeD busy with a slow service must not advertise a near-zero
// pending-work forecast for its fast service.
func TestEstimateDrainPricesOtherServices(t *testing.T) {
	rpc.ResetLocal()
	release := make(chan struct{})
	blocking := sleepService("slowsvc", 0, nil)
	innerSolve := blocking.Solve
	blocking.Solve = func(p *Profile) error { <-release; return innerSolve(p) }
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-fc4", LAs: []string{"LA1"},
		SeDs: []SeDSpec{{
			Name: "SeD-fc4", Parent: "LA1", PowerGFlops: 50,
			Services: []ServiceSpec{sleepService("fastsvc", time.Millisecond, nil), blocking},
		}},
		Local: true,
	})
	sed := d.SeDs[0]

	// History for both services: fastsvc ~1ms, slowsvc trained with a long
	// observed duration injected directly into the monitor.
	p, _ := NewProfile("fastsvc", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	if _, err := sed.Solve(p); err != nil {
		t.Fatal(err)
	}
	sed.Monitor().Observe(cori.Sample{Service: "slowsvc", Duration: time.Hour})

	// Occupy the SeD with a slowsvc job (it blocks until released).
	go func() {
		q, _ := NewProfile("slowsvc", 0, 0, 1)
		q.SetScalarInt(0, 1, Volatile)
		sed.Solve(q)
	}()
	waitFor(t, func() bool { return sed.Stats().Running == 1 })

	est := sed.Estimate("fastsvc").Est
	close(release)
	if !est.HasForecast {
		t.Fatal("estimate must carry a forecast")
	}
	// The pending slowsvc job must be priced at ~1h, not at fastsvc's ~1ms.
	if est.PendingWorkSeconds < 1800 {
		t.Fatalf("PendingWorkSeconds = %g, want ≈3600 (the slow service's EWMA)", est.PendingWorkSeconds)
	}
}

// TestTruncatePrefersForecastDrain unit-tests the agent's distributed
// truncation: under a CollectN cap, a server whose drain forecast is short
// must survive over one with a shorter queue but a huge predicted drain.
func TestTruncatePrefersForecastDrain(t *testing.T) {
	a, err := NewAgent(AgentConfig{Name: "MA-fc3", Kind: MasterAgent})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, queue int, pendingS float64) scheduler.Estimate {
		return scheduler.Estimate{
			ServerID: id, Service: "svc", Capacity: 1, QueueLen: queue,
			PowerGFlops: 10, HasForecast: true, ForecastSamples: 5,
			EWMASolveSeconds: 1, ForecastConfidence: 1, PendingWorkSeconds: pendingS,
		}
	}
	ests := []scheduler.Estimate{
		mk("A", 1, 5000), // short queue hiding one huge job
		mk("B", 3, 20),   // longer queue of tiny jobs
	}
	got := a.truncate(CollectRequest{Service: "svc", Limit: 1}, ests)
	if len(got) != 1 || got[0].ServerID != "B" {
		t.Fatalf("truncation must keep the fast-draining B, kept %+v", got)
	}

	// Without forecasts, a loaded server of unknown speed loses to one with
	// measured history.
	ests = []scheduler.Estimate{
		{ServerID: "C", Service: "svc", Capacity: 1, QueueLen: 1, PowerGFlops: 50, LastSolveSeconds: -1},
		{ServerID: "D", Service: "svc", Capacity: 1, QueueLen: 2, PowerGFlops: 10, LastSolveSeconds: 3},
	}
	got = a.truncate(CollectRequest{Service: "svc", Limit: 1}, ests)
	if len(got) != 1 || got[0].ServerID != "D" {
		t.Fatalf("predictable D must survive over unknown-speed C, kept %+v", got)
	}
}
