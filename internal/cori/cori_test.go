package cori

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock the decay tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestNoHistory(t *testing.T) {
	m := NewMonitor(Config{})
	if _, ok := m.Model("ramsesZoom2"); ok {
		t.Fatal("Model must report ok=false with no history")
	}
	if sec, ok := m.Forecast("ramsesZoom2", 5000); ok || sec >= 0 {
		t.Fatalf("Forecast with no history must be (negative, false), got (%g, %v)", sec, ok)
	}
	if got := m.Metrics("ramsesZoom2"); len(got) != 0 {
		t.Fatalf("Metrics with no history must be empty, got %v", got)
	}
	if got := m.Services(); len(got) != 0 {
		t.Fatalf("Services with no history must be empty, got %v", got)
	}
}

func TestSingleSample(t *testing.T) {
	clk := newFakeClock()
	m := NewMonitor(Config{Now: clk.Now})
	m.Observe(Sample{Service: "svc", Duration: 90 * time.Second, WorkGFlops: 4500})

	model, ok := m.Model("svc")
	if !ok {
		t.Fatal("one sample must be enough for a model")
	}
	if model.Samples != 1 {
		t.Fatalf("Samples = %d, want 1", model.Samples)
	}
	// A single sample cannot support a regression; the EWMA (== the sample)
	// must answer for any work size.
	if model.PerGFlopSeconds != 0 {
		t.Fatalf("slope must be 0 with one sample, got %g", model.PerGFlopSeconds)
	}
	for _, work := range []float64{0, 100, 9000} {
		if got := model.SolveSeconds(work); math.Abs(got-90) > 1e-9 {
			t.Fatalf("SolveSeconds(%g) = %g, want 90", work, got)
		}
	}
}

func TestConstantTimeService(t *testing.T) {
	// Identical work sizes: the regression is degenerate and must be
	// declined in favour of the EWMA, not produce a wild slope.
	m := NewMonitor(Config{})
	for i := 0; i < 10; i++ {
		m.Observe(Sample{Service: "svc", Duration: 60 * time.Second, WorkGFlops: 1000})
	}
	model, _ := m.Model("svc")
	if model.PerGFlopSeconds != 0 {
		t.Fatalf("constant-work window must not fit a slope, got %g", model.PerGFlopSeconds)
	}
	if got := model.SolveSeconds(123456); math.Abs(got-60) > 1e-9 {
		t.Fatalf("constant-time forecast = %g, want 60", got)
	}
}

func TestHeterogeneousWorkFitsThroughput(t *testing.T) {
	// Durations generated by a 50-GFlops server over varied work sizes: the
	// fit must recover the delivered power and extrapolate to unseen sizes.
	m := NewMonitor(Config{})
	for _, work := range []float64{1000, 2000, 4000, 8000, 3000, 6000} {
		m.Observe(Sample{Service: "svc", WorkGFlops: work, Duration: time.Duration(work / 50 * float64(time.Second))})
	}
	model, _ := m.Model("svc")
	if math.Abs(model.MeasuredGFlops-50) > 0.5 {
		t.Fatalf("MeasuredGFlops = %g, want ≈50", model.MeasuredGFlops)
	}
	if got, want := model.SolveSeconds(10000), 200.0; math.Abs(got-want) > 1 {
		t.Fatalf("SolveSeconds(10000) = %g, want ≈%g", got, want)
	}
	// The forecast must track the model, not the mean: a tiny job predicts
	// far below the EWMA.
	if got := model.SolveSeconds(100); got > 10 {
		t.Fatalf("SolveSeconds(100) = %g, want ≈2", got)
	}
}

func TestUnknownWorkFallsBackToEWMA(t *testing.T) {
	m := NewMonitor(Config{})
	m.Observe(Sample{Service: "svc", Duration: 100 * time.Second})
	m.Observe(Sample{Service: "svc", Duration: 200 * time.Second})
	model, _ := m.Model("svc")
	// EWMA with alpha 0.25: 0.25·200 + 0.75·100 = 125.
	if math.Abs(model.EWMASeconds-125) > 1e-9 {
		t.Fatalf("EWMASeconds = %g, want 125", model.EWMASeconds)
	}
	if got := model.SolveSeconds(5000); math.Abs(got-125) > 1e-9 {
		t.Fatalf("work-size forecast without work history = %g, want the EWMA 125", got)
	}
}

func TestConfidenceDecay(t *testing.T) {
	// The injected clock makes the half-life test instant and exact.
	clk := newFakeClock()
	m := NewMonitor(Config{Now: clk.Now, HalfLife: time.Hour})
	m.Observe(Sample{Service: "svc", Duration: time.Minute})

	model, _ := m.Model("svc")
	if math.Abs(model.Confidence-1) > 1e-9 {
		t.Fatalf("fresh confidence = %g, want 1", model.Confidence)
	}
	clk.Advance(time.Hour)
	model, _ = m.Model("svc")
	if math.Abs(model.Confidence-0.5) > 1e-9 {
		t.Fatalf("confidence after one half-life = %g, want 0.5", model.Confidence)
	}
	clk.Advance(time.Hour)
	model, _ = m.Model("svc")
	if math.Abs(model.Confidence-0.25) > 1e-9 {
		t.Fatalf("confidence after two half-lives = %g, want 0.25", model.Confidence)
	}
	// A new observation resets the age.
	m.Observe(Sample{Service: "svc", Duration: time.Minute})
	model, _ = m.Model("svc")
	if math.Abs(model.Confidence-1) > 1e-9 {
		t.Fatalf("confidence after a fresh sample = %g, want 1", model.Confidence)
	}
}

func TestRingBound(t *testing.T) {
	m := NewMonitor(Config{Window: 8})
	// 100 slow samples, then 8 fast ones: the window must hold only the
	// fast regime, so the fitted throughput reflects it.
	for i := 0; i < 100; i++ {
		m.Observe(Sample{Service: "svc", WorkGFlops: float64(1000 + i), Duration: time.Duration(float64(1000+i) / 10 * float64(time.Second))})
	}
	for i := 0; i < 8; i++ {
		work := float64(1000 + 100*i)
		m.Observe(Sample{Service: "svc", WorkGFlops: work, Duration: time.Duration(work / 100 * float64(time.Second))})
	}
	model, _ := m.Model("svc")
	if model.Window != 8 {
		t.Fatalf("Window = %d, want 8", model.Window)
	}
	if model.Samples != 108 {
		t.Fatalf("Samples = %d, want 108", model.Samples)
	}
	if math.Abs(model.MeasuredGFlops-100) > 1 {
		t.Fatalf("windowed fit must track the new regime: MeasuredGFlops = %g, want ≈100", model.MeasuredGFlops)
	}
}

func TestQueueDepthAndMetrics(t *testing.T) {
	m := NewMonitor(Config{})
	for i := 0; i < 4; i++ {
		m.Observe(Sample{Service: "svc", Duration: time.Second, QueueDepth: i})
	}
	model, _ := m.Model("svc")
	if math.Abs(model.MeanQueueDepth-1.5) > 1e-9 {
		t.Fatalf("MeanQueueDepth = %g, want 1.5", model.MeanQueueDepth)
	}
	met := m.Metrics("svc")
	if met["EST_NBSAMPLES"] != 4 {
		t.Fatalf("EST_NBSAMPLES = %g, want 4", met["EST_NBSAMPLES"])
	}
	if met["EST_AVG_QUEUE"] != 1.5 {
		t.Fatalf("EST_AVG_QUEUE = %g, want 1.5", met["EST_AVG_QUEUE"])
	}
	if got := m.Services(); len(got) != 1 || got[0] != "svc" {
		t.Fatalf("Services = %v, want [svc]", got)
	}
}

func TestDrainSecondsPricesPerService(t *testing.T) {
	// Pending work must be priced at each pending service's own EWMA: five
	// hour-long 'slow' jobs in the queue cannot be forecast at 'fast' rates.
	m := NewMonitor(Config{})
	m.Observe(Sample{Service: "fast", Duration: time.Second})
	m.Observe(Sample{Service: "slow", Duration: time.Hour})
	fast, _ := m.Model("fast")

	got := m.DrainSeconds(map[string]int{"fast": 2, "slow": 5}, fast, 1)
	want := 2*1.0 + 5*3600.0
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("DrainSeconds = %g, want %g", got, want)
	}
	// Capacity shares the drain over slots.
	if got := m.DrainSeconds(map[string]int{"slow": 4}, fast, 2); math.Abs(got-2*3600) > 1e-6 {
		t.Fatalf("DrainSeconds over 2 slots = %g, want %g", got, 2*3600.0)
	}
	// A pending service with no history borrows the proxy model's EWMA.
	if got := m.DrainSeconds(map[string]int{"new": 3}, fast, 1); math.Abs(got-3) > 1e-6 {
		t.Fatalf("unknown-service drain = %g, want the proxy 3", got)
	}
	if got := m.DrainSeconds(nil, fast, 1); got != 0 {
		t.Fatalf("idle drain = %g, want 0", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := NewMonitor(Config{Window: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			svc := fmt.Sprintf("svc%d", g%2)
			for i := 0; i < 100; i++ {
				m.Observe(Sample{Service: svc, Duration: time.Second, WorkGFlops: float64(i + 1)})
				m.Model(svc)
			}
		}(g)
	}
	wg.Wait()
	for _, svc := range []string{"svc0", "svc1"} {
		model, ok := m.Model(svc)
		if !ok || model.Samples != 400 {
			t.Fatalf("%s: Samples = %d (ok=%v), want 400", svc, model.Samples, ok)
		}
	}
}
