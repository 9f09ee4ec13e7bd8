package cori

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/scheduler"
)

// The four bodies below are the duration predictions the stack made before
// scheduler.Estimate.PredictSeconds existed, kept verbatim (the floor a
// parameter or the old constant) as the oracles the one function is checked
// against: the policies' forecastDur, the loop body of BestEstimateSeconds,
// diet.SeD.predictSolve and the simulator's sedState.predict.

const oracleFloor = 0.05

func oracleForecastDur(e *scheduler.Estimate, work, minConfidence float64) float64 {
	if e.HasForecast && e.ForecastSamples > 0 && e.ForecastConfidence >= minConfidence {
		if p := e.ForecastSolveSeconds(work); p > 0 {
			return p
		}
	}
	power := e.PowerGFlops
	if power <= 0 {
		power = 1
	}
	return work / power
}

func oracleBestBody(e scheduler.Estimate, workGFlops, minConfidence float64) (float64, bool) {
	sec, model := -1.0, false
	if e.HasForecast && e.ForecastSamples > 0 && e.ForecastConfidence >= minConfidence {
		if p := e.ForecastSolveSeconds(workGFlops); p > 0 {
			sec, model = p, true
		}
	}
	if sec <= 0 {
		power := e.PowerGFlops
		if power <= 0 {
			power = 1
		}
		sec, model = workGFlops/power, false
	}
	return sec, model
}

// oracleBestEstimateSeconds is the whole of BestEstimateSeconds as it was.
func oracleBestEstimateSeconds(ests []scheduler.Estimate, workGFlops, minConfidence float64) (seconds float64, byModel bool) {
	found := false
	for _, e := range ests {
		sec, model := oracleBestBody(e, workGFlops, minConfidence)
		if !found || sec < seconds || (sec == seconds && model && !byModel) {
			seconds, byModel, found = sec, model, true
		}
	}
	if !found {
		return 0, false
	}
	return seconds, byModel
}

func oracleSeDPredict(m *Monitor, service string, work, power float64) (float64, bool) {
	if model, ok := m.Model(service); ok && model.Confidence >= oracleFloor {
		if p := model.SolveSeconds(work); p > 0 {
			return p, true
		}
	}
	if power <= 0 {
		power = 1
	}
	return work / power, false
}

func oracleSimPredict(m *Monitor, service string, work, power float64) (float64, bool) {
	if m != nil {
		if model, ok := m.Model(service); ok && model.Confidence >= oracleFloor {
			if p := model.SolveSeconds(work); p > 0 {
				return p, true
			}
		}
	}
	if power <= 0 {
		power = 1
	}
	return work / power, false
}

// pick returns one of vs at random.
func pick(rng *rand.Rand, vs ...float64) float64 { return vs[rng.Intn(len(vs))] }

// randomEstimate draws an estimate from small pools that reach every branch
// of the prediction: no model, a model on no samples, confidence at and one
// ulp under the floor, fitted times at and below zero, no advertised power,
// and the non-finite values a wire peer can send.
func randomEstimate(rng *rand.Rand) scheduler.Estimate {
	floor := scheduler.MinConfidence
	return scheduler.Estimate{
		PowerGFlops:        pick(rng, 0, -3, 10, 100*rng.Float64(), math.Inf(1), math.NaN()),
		HasForecast:        rng.Intn(4) > 0,
		ForecastSamples:    rng.Intn(3),
		EWMASolveSeconds:   pick(rng, 0, -1, 10, 500*rng.Float64(), math.NaN()),
		ForecastBaseS:      pick(rng, 0, -100, 5, 50*rng.Float64()-25),
		ForecastPerGFlopS:  pick(rng, 0, -0.1, 0.1, rng.Float64()),
		ForecastConfidence: pick(rng, 0, floor, math.Nextafter(floor, 0), 1, 1.5, rng.Float64(), math.NaN()),
	}
}

func randomWork(rng *rand.Rand) float64 {
	return pick(rng, 0, -5, 100, 1e4*rng.Float64(), math.Inf(1))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestPredictSecondsEqualsEstimateOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 20000; i++ {
		e, work := randomEstimate(rng), randomWork(rng)
		got, byModel := e.PredictSeconds(work)
		if want := oracleForecastDur(&e, work, oracleFloor); !sameBits(got, want) {
			t.Fatalf("%+v work %g: PredictSeconds %g, forecastDur %g", e, work, got, want)
		}
		if want, wantModel := oracleBestBody(e, work, oracleFloor); !sameBits(got, want) || byModel != wantModel {
			t.Fatalf("%+v work %g: PredictSeconds (%g, %v), BestEstimateSeconds body (%g, %v)", e, work, got, byModel, want, wantModel)
		}
	}
}

func TestPredictSecondsEdges(t *testing.T) {
	floor := scheduler.MinConfidence
	model := scheduler.Estimate{
		PowerGFlops: 10, HasForecast: true, ForecastSamples: 4,
		EWMASolveSeconds: 7, ForecastConfidence: 1,
	}
	for _, c := range []struct {
		name      string
		edit      func(e *scheduler.Estimate)
		work      float64
		want      float64
		wantModel bool
	}{
		{"trusted model", func(e *scheduler.Estimate) {}, 100, 7, true},
		{"warm prior: no samples at full confidence", func(e *scheduler.Estimate) { e.ForecastSamples = 0 }, 100, 10, false},
		{"confidence at the floor", func(e *scheduler.Estimate) { e.ForecastConfidence = floor }, 100, 7, true},
		{"confidence an ulp under the floor", func(e *scheduler.Estimate) { e.ForecastConfidence = math.Nextafter(floor, 0) }, 100, 10, false},
		{"fitted time zero", func(e *scheduler.Estimate) { e.EWMASolveSeconds = 0 }, 100, 10, false},
		{"fitted time negative", func(e *scheduler.Estimate) {
			e.ForecastBaseS, e.ForecastPerGFlopS, e.EWMASolveSeconds = -100, 0.5, -1
		}, 100, 10, false},
		{"no advertised power", func(e *scheduler.Estimate) { e.HasForecast, e.PowerGFlops = false, 0 }, 100, 100, false},
		{"negative advertised power", func(e *scheduler.Estimate) { e.HasForecast, e.PowerGFlops = false, -3 }, 100, 100, false},
	} {
		e := model
		c.edit(&e)
		got, byModel := e.PredictSeconds(c.work)
		if got != c.want || byModel != c.wantModel {
			t.Errorf("%s: PredictSeconds = (%g, %v), want (%g, %v)", c.name, got, byModel, c.want, c.wantModel)
		}
		if want := oracleForecastDur(&e, c.work, oracleFloor); !sameBits(got, want) {
			t.Errorf("%s: forecastDur oracle %g", c.name, want)
		}
		if want, wantModel := oracleBestBody(e, c.work, oracleFloor); !sameBits(got, want) || byModel != wantModel {
			t.Errorf("%s: BestEstimateSeconds body oracle (%g, %v)", c.name, want, wantModel)
		}
	}
}

// TestMonitorPredictSecondsEqualsSeDOracles drives monitors through random
// histories, staleness and warm-start priors and checks the prediction the
// SeD and the simulator now make through Monitor.PredictSeconds against
// their old bodies.
func TestMonitorPredictSecondsEqualsSeDOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 400; trial++ {
		clk := newFakeClock()
		m := NewMonitor(Config{Now: clk.Now, HalfLife: time.Hour})
		if rng.Intn(3) == 0 {
			m.WarmStart(Model{
				Service: "svc", Samples: 1 + rng.Intn(20), EWMASeconds: 500 * rng.Float64(),
				PerGFlopSeconds: pick(rng, 0, 0.01), BaseSeconds: pick(rng, 0, -50, 20), Confidence: rng.Float64(),
			})
		}
		for n := rng.Intn(6); n > 0; n-- {
			m.Observe(Sample{
				Service:    "svc",
				WorkGFlops: pick(rng, 0, 100, 1e4*rng.Float64()),
				Duration:   time.Duration(rng.Int63n(int64(time.Hour))),
				At:         clk.Now(),
			})
		}
		clk.Advance(time.Duration(rng.Int63n(int64(6 * time.Hour))))
		for i := 0; i < 20; i++ {
			work, power := randomWork(rng), pick(rng, 0, -1, 4, 100*rng.Float64())
			got, byModel := m.PredictSeconds("svc", work, power)
			if want, wantModel := oracleSeDPredict(m, "svc", work, power); !sameBits(got, want) || byModel != wantModel {
				t.Fatalf("trial %d: PredictSeconds (%g, %v), SeD oracle (%g, %v)", trial, got, byModel, want, wantModel)
			}
			if want, wantModel := oracleSimPredict(m, "svc", work, power); !sameBits(got, want) || byModel != wantModel {
				t.Fatalf("trial %d: PredictSeconds (%g, %v), simulator oracle (%g, %v)", trial, got, byModel, want, wantModel)
			}
			var none *Monitor
			got, byModel = none.PredictSeconds("svc", work, power)
			if want, wantModel := oracleSimPredict(nil, "svc", work, power); !sameBits(got, want) || byModel != wantModel {
				t.Fatalf("nil monitor: PredictSeconds (%g, %v), simulator oracle (%g, %v)", got, byModel, want, wantModel)
			}
		}
	}
}

func TestBestEstimateSecondsEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 5000; i++ {
		// Few distinct values, so equal prices — model against power — are
		// common and the tie-break is exercised.
		ests := make([]scheduler.Estimate, rng.Intn(5))
		for j := range ests {
			ests[j] = scheduler.Estimate{
				PowerGFlops: pick(rng, 0, 10, 20), HasForecast: rng.Intn(2) == 0, ForecastSamples: rng.Intn(2),
				EWMASolveSeconds: pick(rng, 0, 5, 10), ForecastConfidence: pick(rng, 0.01, 1),
			}
		}
		work := pick(rng, 0, 100, 200)
		got, byModel := BestEstimateSeconds(ests, work)
		want, wantModel := oracleBestEstimateSeconds(ests, work, oracleFloor)
		if !sameBits(got, want) || byModel != wantModel {
			t.Fatalf("%+v work %g: (%g, %v), oracle (%g, %v)", ests, work, got, byModel, want, wantModel)
		}
	}
	// A model-priced tie wins in either order.
	byPower := scheduler.Estimate{ServerID: "p", PowerGFlops: 10}
	byFit := scheduler.Estimate{ServerID: "m", PowerGFlops: 1, HasForecast: true, ForecastSamples: 3, EWMASolveSeconds: 10, ForecastConfidence: 1}
	for _, ests := range [][]scheduler.Estimate{{byPower, byFit}, {byFit, byPower}} {
		if sec, byModel := BestEstimateSeconds(ests, 100); sec != 10 || !byModel {
			t.Errorf("tie %s,%s: (%g, %v), want (10, true)", ests[0].ServerID, ests[1].ServerID, sec, byModel)
		}
	}
}
