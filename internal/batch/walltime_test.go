package batch

import (
	"errors"
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
	pol := WalltimePolicy{Fixed: time.Hour, Margin: 0.2}

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

func TestForecastExecutorOverrunKillAndRequeue(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	now := time.Unix(1_000_000, 0)
	// The model predicts 1 s but margin is tiny and the real solve takes
	// longer than the first sized grant: sized ≈ 10 ms × 1.01 → killed,
	// requeued at ~20 ms, killed, then ~40 ms succeeds.
	m := cori.NewMonitor(cori.Config{Now: func() time.Time { return now }})
	for i := 0; i < 4; i++ {
		m.Observe(cori.Sample{Service: "svc", Duration: 10 * time.Millisecond, At: now})
	}
	e := &ForecastExecutor{
		System: s, JobName: "sized", Nodes: 1,
		Policy:      WalltimePolicy{Fixed: time.Minute, Margin: 0.01},
		MaxAttempts: 5,
	}
	var runs atomic.Int32
	_, err := e.Execute("svc", 0, m, func() error {
		runs.Add(1)
		time.Sleep(35 * time.Millisecond)
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("Execute = %v, want eventual success after requeues", err)
	}
	st := e.Stats()
	if st.ForecastSized != 1 {
		t.Fatalf("stats %+v: the first attempt must be forecast-sized", st)
	}
	if st.OverrunKills == 0 || st.Requeues == 0 {
		t.Fatalf("stats %+v: the undersized grant must be killed and requeued", st)
	}
	if st.OverrunKills != st.Requeues {
		t.Fatalf("stats %+v: every kill must requeue on success", st)
	}
	if sys := s.Stats(); sys.OverrunKills != st.OverrunKills {
		t.Fatalf("system kills %d must match executor kills %d", sys.OverrunKills, st.OverrunKills)
	}
}

func TestForecastExecutorGivesUpAfterMaxAttempts(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	e := &ForecastExecutor{
		System: s, JobName: "doomed", Nodes: 1,
		Policy:      WalltimePolicy{Fixed: 5 * time.Millisecond},
		MaxAttempts: 2,
	}
	block := make(chan struct{})
	defer close(block)
	_, err := e.Execute("svc", 0, nil, func() error { <-block; return nil }, nil)
	if !errors.Is(err, ErrWalltime) {
		t.Fatalf("Execute = %v, want ErrWalltime after exhausting attempts", err)
	}
	st := e.Stats()
	if st.FixedFallback != 1 || st.OverrunKills != 2 || st.Requeues != 1 {
		t.Fatalf("stats %+v, want 2 kills / 1 requeue / fixed fallback", st)
	}
}

// TestExecuteSizedTraceReportsAttempts checks the per-attempt lifecycle
// callback against a real kill-and-requeue sequence: every attempt fires
// exactly once, attempts are numbered in order, kills carry the killed flag,
// and the successful final attempt does not.
func TestExecuteSizedTraceReportsAttempts(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, EnforceWalltime: true})
	now := time.Unix(1_000_000, 0)
	m := cori.NewMonitor(cori.Config{Now: func() time.Time { return now }})
	for i := 0; i < 4; i++ {
		m.Observe(cori.Sample{Service: "svc", Duration: 10 * time.Millisecond, At: now})
	}
	e := &ForecastExecutor{
		System: s, JobName: "traced", Nodes: 1,
		Policy:      WalltimePolicy{Fixed: time.Minute, Margin: 0.01},
		MaxAttempts: 5,
	}
	type attemptRec struct {
		attempt int
		wait    time.Duration
		killed  bool
	}
	var mu sync.Mutex
	var seen []attemptRec
	_, err := e.Execute("svc", 0, m, func() error {
		time.Sleep(35 * time.Millisecond)
		return nil
	}, func(attempt int, wait time.Duration, killed bool, start, end time.Time) {
		mu.Lock()
		defer mu.Unlock()
		if end.Before(start) {
			t.Errorf("attempt %d ends before it starts", attempt)
		}
		seen = append(seen, attemptRec{attempt, wait, killed})
	})
	if err != nil {
		t.Fatalf("Execute = %v, want eventual success", err)
	}
	st := e.Stats()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != st.OverrunKills+1 {
		t.Fatalf("callback fired %d times, want one per attempt (%d kills + success)", len(seen), st.OverrunKills)
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
