package batch

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cori"
)

// trainedMonitor returns a monitor whose model for "svc" predicts ~1 s
// solves, with an injectable clock to drive staleness.
func trainedMonitor(now *time.Time) *cori.Monitor {
	m := cori.NewMonitor(cori.Config{HalfLife: time.Hour, Now: func() time.Time { return *now }})
	for i := 0; i < 8; i++ {
		m.Observe(cori.Sample{Service: "svc", Duration: time.Second, At: *now})
	}
	return m
}

func TestWalltimeColdMonitorFallsBackToFixedGrant(t *testing.T) {
	pol := WalltimePolicy{Fixed: 90 * time.Minute}
	// Nil monitor and cold monitor both take the fixed-grant path.
	if wall, sized := pol.Size(nil, "svc", 100); sized || wall != 90*time.Minute {
		t.Fatalf("nil monitor: wall %v sized %v, want fixed 90m", wall, sized)
	}
	cold := cori.NewMonitor(cori.Config{})
	if wall, sized := pol.Size(cold, "svc", 100); sized || wall != 90*time.Minute {
		t.Fatalf("cold monitor: wall %v sized %v, want fixed 90m", wall, sized)
	}
	// A monitor trained on a *different* service is still cold for this one.
	now := time.Unix(1_000_000, 0)
	other := trainedMonitor(&now)
	if _, sized := pol.Size(other, "unseen", 100); sized {
		t.Fatal("history for another service must not size this one")
	}
}

func TestWalltimeStaleModelWidensMargin(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	m := trainedMonitor(&now)
	pol := WalltimePolicy{Fixed: time.Hour}

	fresh, sized := pol.Size(m, "svc", 0)
	if !sized {
		t.Fatal("fresh model must size the walltime")
	}
	// Fresh: ~1 s forecast × (1 + 0.2/1.0) = 1.2 s.
	if fresh < 1100*time.Millisecond || fresh > 1300*time.Millisecond {
		t.Fatalf("fresh walltime %v, want ≈1.2 s", fresh)
	}

	// One half-life later, confidence halves and the margin doubles:
	// 1 s × (1 + 0.2/0.5) = 1.4 s.
	now = now.Add(time.Hour)
	stale, sized := pol.Size(m, "svc", 0)
	if !sized {
		t.Fatal("half-life-old model is still trusted")
	}
	if stale <= fresh {
		t.Fatalf("stale walltime %v must be wider than fresh %v", stale, fresh)
	}
	if stale < 1300*time.Millisecond || stale > 1500*time.Millisecond {
		t.Fatalf("stale walltime %v, want ≈1.4 s", stale)
	}

	// Far past the trust floor (~4.4 half-lives = conf 0.047 < 0.05) the
	// model is ignored entirely: back to the fixed grant.
	now = now.Add(10 * time.Hour)
	wall, sized := pol.Size(m, "svc", 0)
	if sized || wall != time.Hour {
		t.Fatalf("decayed model: wall %v sized %v, want fixed grant", wall, sized)
	}
}

func TestWalltimeEnforcementKillsOverrun(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	release := make(chan struct{})
	j, _ := s.Submit("overrun", 1, 20*time.Millisecond, func() error {
		<-release
		return nil
	})
	err := s.Wait(j)
	close(release)
	if !errors.Is(err, ErrWalltime) {
		t.Fatalf("Wait = %v, want ErrWalltime", err)
	}
	if j.State() != Failed {
		t.Fatalf("state %s, want Failed", j.State())
	}
	st := s.Stats()
	if st.OverrunKills != 1 || st.Failed != 1 {
		t.Fatalf("stats %+v, want one overrun kill", st)
	}
	if st.FreeNodes != 1 {
		t.Fatalf("killed job must release its nodes, free = %d", st.FreeNodes)
	}
}

func TestWalltimeEnforcementLeavesFinishersAlone(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	j, _ := s.Submit("quick", 1, time.Minute, func() error { return nil })
	if err := s.Wait(j); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.OverrunKills != 0 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.IdlePad <= 0 || st.Reserved != time.Minute {
		t.Fatalf("pad accounting: pad %v reserved %v", st.IdlePad, st.Reserved)
	}
}

// killGate is a solve body whose first invocation blocks until the
// executor's attempt callback reports a kill, so the first grant is always
// outlived however long it is, and every later invocation returns at once.
type killGate struct {
	killed chan struct{}
	once   sync.Once
	runs   atomic.Int32
}

func newKillGate() *killGate { return &killGate{killed: make(chan struct{})} }

func (g *killGate) run() error {
	if g.runs.Add(1) == 1 {
		<-g.killed
	}
	return nil
}

func (g *killGate) attempt(_ int, _ time.Duration, killed bool, _, _ time.Time) {
	if killed {
		g.once.Do(func() { close(g.killed) })
	}
}

// sizedMonitor returns a monitor whose trusted model for "svc" predicts
// 100 ms solves, so the first sized grant is 120 ms and the requeued one
// twice that.
func sizedMonitor() *cori.Monitor {
	now := time.Unix(1_000_000, 0)
	m := cori.NewMonitor(cori.Config{Now: func() time.Time { return now }})
	for i := 0; i < 4; i++ {
		m.Observe(cori.Sample{Service: "svc", Duration: 100 * time.Millisecond, At: now})
	}
	return m
}

func TestForecastExecutorOverrunKillAndRequeue(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	e := &ForecastExecutor{
		System: s, JobName: "sized", Nodes: 1,
		Policy: WalltimePolicy{Fixed: time.Minute},
	}
	g := newKillGate()
	if _, err := e.Execute("svc", 0, sizedMonitor(), g.run, g.attempt); err != nil {
		t.Fatalf("Execute = %v, want success after one requeue", err)
	}
	st := e.Stats()
	if st.ForecastSized != 1 {
		t.Fatalf("stats %+v: the first attempt must be forecast-sized", st)
	}
	if st.OverrunKills != 1 || st.Requeues != 1 {
		t.Fatalf("stats %+v: want the first grant killed and requeued once", st)
	}
	if sys := s.Stats(); sys.OverrunKills != st.OverrunKills {
		t.Fatalf("system kills %d must match executor kills %d", sys.OverrunKills, st.OverrunKills)
	}
}

func TestForecastExecutorGivesUpAfterMaxAttempts(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	e := &ForecastExecutor{
		System: s, JobName: "doomed", Nodes: 1,
		Policy: WalltimePolicy{Fixed: 5 * time.Millisecond},
	}
	block := make(chan struct{})
	defer close(block)
	_, err := e.Execute("svc", 0, nil, func() error { <-block; return nil }, nil)
	if !errors.Is(err, ErrWalltime) {
		t.Fatalf("Execute = %v, want ErrWalltime after exhausting attempts", err)
	}
	st := e.Stats()
	if st.FixedFallback != 1 || st.OverrunKills != MaxAttempts || st.Requeues != MaxAttempts-1 {
		t.Fatalf("stats %+v, want %d kills / %d requeues / fixed fallback", st, MaxAttempts, MaxAttempts-1)
	}
}

// TestExecuteSizedTraceReportsAttempts checks the per-attempt lifecycle
// callback against a real kill-and-requeue sequence: every attempt fires
// exactly once, attempts are numbered in order, kills carry the killed flag,
// and the successful final attempt does not.
func TestExecuteSizedTraceReportsAttempts(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	e := &ForecastExecutor{
		System: s, JobName: "traced", Nodes: 1,
		Policy: WalltimePolicy{Fixed: time.Minute},
	}
	g := newKillGate()
	type attemptRec struct {
		attempt int
		wait    time.Duration
		killed  bool
	}
	var mu sync.Mutex
	var seen []attemptRec
	_, err := e.Execute("svc", 0, sizedMonitor(), g.run, func(attempt int, wait time.Duration, killed bool, start, end time.Time) {
		mu.Lock()
		if end.Before(start) {
			t.Errorf("attempt %d ends before it starts", attempt)
		}
		seen = append(seen, attemptRec{attempt, wait, killed})
		mu.Unlock()
		g.attempt(attempt, wait, killed, start, end)
	})
	if err != nil {
		t.Fatalf("Execute = %v, want success after one requeue", err)
	}
	st := e.Stats()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || st.OverrunKills != 1 {
		t.Fatalf("callback fired %d times with %d kills, want one kill and one success", len(seen), st.OverrunKills)
	}
	for i, rec := range seen {
		if rec.attempt != i+1 {
			t.Errorf("attempt numbering: got %d at position %d", rec.attempt, i)
		}
		wantKilled := i < len(seen)-1
		if rec.killed != wantKilled {
			t.Errorf("attempt %d killed=%v, want %v", rec.attempt, rec.killed, wantKilled)
		}
	}
	// The traced path must account queue wait identically to the untraced
	// one: the sum over attempts.
	var sum time.Duration
	for _, rec := range seen {
		sum += rec.wait
	}
	if sum != st.QueueWait {
		t.Errorf("traced waits sum %v, stats say %v", sum, st.QueueWait)
	}
}

// oracleSize is Size as it was before it priced through
// scheduler.Estimate.PredictSeconds: FromForecast over the model's
// SolveSeconds, with the old defaults (margin 0.2, floor 0.05, uncapped).
func oracleSize(fixed time.Duration, m *cori.Monitor, service string, workGFlops float64) (time.Duration, bool) {
	if fixed <= 0 {
		fixed = 2 * time.Hour
	}
	if m != nil {
		if model, ok := m.Model(service); ok {
			forecastS, confidence := model.SolveSeconds(workGFlops), model.Confidence
			if !(forecastS <= 0 || confidence < 0.05) {
				if confidence > 1 {
					confidence = 1
				}
				return time.Duration(forecastS * (1 + 0.2/confidence) * float64(time.Second)), true
			}
		}
	}
	return fixed, false
}

func TestSizeEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 300; trial++ {
		now := time.Unix(1_000_000, 0)
		m := cori.NewMonitor(cori.Config{HalfLife: time.Hour, Now: func() time.Time { return now }})
		if rng.Intn(3) == 0 {
			// A gossiped prior may claim more than full confidence.
			m.WarmStart(cori.Model{Service: "svc", Samples: 1 + rng.Intn(10), EWMASeconds: 100 * rng.Float64(), Confidence: 0.5 + rng.Float64()})
		}
		for n := rng.Intn(5); n > 0; n-- {
			m.Observe(cori.Sample{
				Service:    "svc",
				WorkGFlops: []float64{0, 100, 1e4 * rng.Float64()}[rng.Intn(3)],
				Duration:   time.Duration(rng.Int63n(int64(time.Hour))),
				At:         now,
			})
		}
		now = now.Add(time.Duration(rng.Int63n(int64(6 * time.Hour))))
		fixed := []time.Duration{0, time.Minute}[rng.Intn(2)]
		for _, mon := range []*cori.Monitor{m, nil} {
			work := []float64{0, -5, 100, 1e4 * rng.Float64()}[rng.Intn(4)]
			got, sized := WalltimePolicy{Fixed: fixed}.Size(mon, "svc", work)
			want, wantSized := oracleSize(fixed, mon, "svc", work)
			if got != want || sized != wantSized {
				t.Fatalf("trial %d: Size = (%v, %v), oracle (%v, %v)", trial, got, sized, want, wantSized)
			}
		}
	}
}
