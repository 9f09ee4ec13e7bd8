package batch

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cori"
	"repro/internal/scheduler"
)

// WalltimePolicy sizes reservation walltimes from CoRI duration forecasts,
// replacing the fixed grant the paper's batch submissions used. The sized
// walltime is forecast × (1 + Margin/confidence): at full confidence the pad
// is Margin, and as the model goes stale the pad widens in proportion, so a
// half-trusted model gets twice the safety margin. With no trusted forecast
// at all (cold monitor, or confidence below MinConfidence) the policy falls
// back to the Fixed grant.
type WalltimePolicy struct {
	// Fixed is the fallback grant when no trusted forecast exists
	// (default 2h, a typical user walltime request).
	Fixed time.Duration
	// Margin is the fractional safety pad at full confidence (default 0.2).
	Margin float64
	// MinConfidence is the trust floor below which the model is ignored
	// (default scheduler.DefaultMinConfidence, shared with the forecast-aware
	// policies so every layer agrees on which models count).
	MinConfidence float64
	// Max caps the sized walltime (0 = uncapped).
	Max time.Duration
	// RequeueFactor multiplies the walltime after an overrun kill
	// (default 2): the kill proves the grant too small, so the requeue
	// doubles it rather than re-trusting the forecast.
	RequeueFactor float64
}

// WithDefaults resolves the zero-value fields to the documented defaults;
// the simulator mirror calls it so virtual-time sizing matches the live
// executor exactly.
func (p WalltimePolicy) WithDefaults() WalltimePolicy {
	if p.Fixed <= 0 {
		p.Fixed = 2 * time.Hour
	}
	if p.Margin <= 0 {
		p.Margin = 0.2
	}
	if p.MinConfidence <= 0 {
		p.MinConfidence = scheduler.DefaultMinConfidence
	}
	if p.RequeueFactor <= 1 {
		p.RequeueFactor = 2
	}
	return p
}

// FromForecast converts a duration forecast (seconds) and model confidence
// into a walltime. ok is false when the forecast is unusable (non-positive,
// or confidence below the floor) and the caller must fall back to Fixed.
// This pure form is shared by the live ForecastExecutor and the simulator's
// virtual-time mirror, so the two paths cannot drift.
func (p WalltimePolicy) FromForecast(forecastS, confidence float64) (time.Duration, bool) {
	p = p.WithDefaults()
	if forecastS <= 0 || confidence < p.MinConfidence {
		return 0, false
	}
	if confidence > 1 {
		confidence = 1
	}
	wall := time.Duration(forecastS * (1 + p.Margin/confidence) * float64(time.Second))
	if p.Max > 0 && wall > p.Max {
		wall = p.Max
	}
	return wall, true
}

// Size picks the walltime for one solve: the forecast-derived walltime when
// the monitor holds a trusted model for the service, else the fixed grant.
// sized reports which path was taken.
func (p WalltimePolicy) Size(m *cori.Monitor, service string, workGFlops float64) (wall time.Duration, sized bool) {
	p = p.WithDefaults()
	if m != nil {
		if model, ok := m.Model(service); ok {
			if w, ok := p.FromForecast(model.SolveSeconds(workGFlops), model.Confidence); ok {
				return w, true
			}
		}
	}
	return p.Fixed, false
}

// ExecStats counts a ForecastExecutor's sizing decisions and their outcomes.
type ExecStats struct {
	ForecastSized int // reservations sized from a trusted forecast
	FixedFallback int // cold or stale monitor → fixed grant
	OverrunKills  int // attempts killed at their walltime
	Requeues      int // resubmissions after a kill
	Backfilled    int // attempts the batch scheduler started ahead of FIFO order
	// QueueWait is the batch-queue wait (submit→start) summed over every
	// attempt this executor ran — the reservation wait component of each
	// solve's observed wait, which the SeD feeds to cori.Sample.Wait.
	QueueWait time.Duration
}

// ForecastExecutor routes each solve through a reservation whose walltime is
// sized by a WalltimePolicy from the SeD's CoRI monitor — the "transparent
// reservations" integration of the paper's conclusion. It implements
// diet.Executor. Attempts killed at walltime expiry requeue with a
// RequeueFactor-widened grant up to MaxAttempts. Invocations of the body
// are serialised across attempts (Go cannot kill a killed attempt's
// goroutine, so the requeue waits it out rather than overlapping it), but a
// body that completed inside a killed grant may still re-run — solve bodies
// routed through a walltime-enforced System must be idempotent.
type ForecastExecutor struct {
	System  *System
	JobName string
	Nodes   int
	Policy  WalltimePolicy
	// MaxAttempts bounds kill-and-requeue retries (default 3).
	MaxAttempts int

	mu    sync.Mutex
	stats ExecStats
}

// Stats returns a snapshot of the executor's sizing counters.
func (e *ForecastExecutor) Stats() ExecStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Execute implements diet.Executor: size the walltime from the monitor's
// forecast for this service and work (the policy's fixed grant on a nil or
// cold monitor), submit, and on an overrun kill requeue with a widened grant.
// It returns the measured batch-queue wait: submit→start, summed over every
// reservation attempt the solve took. This is the wait the queue actually
// imposed — a backfilled reservation reports the shortened wait it won, and
// a killed attempt's thrown-away compute is not counted as waiting — which
// diet.SeD folds into cori.Sample.Wait so the wait-on-depth regression trains
// on real backfill behaviour instead of the FIFO drain it would otherwise
// assume. After each attempt finishes (normally or killed at its walltime) a
// non-nil attempt callback receives the attempt number, the batch-queue wait
// that attempt paid, whether it was killed, and its submit/end stamps;
// diet.SeD turns those into the reserve and overrun_kill spans of the
// request's trace.
func (e *ForecastExecutor) Execute(service string, workGFlops float64, monitor *cori.Monitor, run func() error,
	attempt func(n int, wait time.Duration, killed bool, start, end time.Time)) (time.Duration, error) {
	pol := e.Policy.WithDefaults()
	nodes := e.Nodes
	if nodes < 1 {
		nodes = 1
	}
	maxAttempts := e.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 3
	}
	wall, sized := pol.Size(monitor, service, workGFlops)
	e.mu.Lock()
	if sized {
		e.stats.ForecastSized++
	} else {
		e.stats.FixedFallback++
	}
	e.mu.Unlock()

	// A killed attempt's goroutine cannot be stopped, so it may still be
	// inside `run` when the requeued attempt starts. runMu serialises the
	// invocations and the abandoned flag makes a killed attempt's zombie
	// goroutine skip the body once it finally acquires the lock, so `run`
	// never executes concurrently with itself.
	var runMu sync.Mutex
	var queueWait time.Duration
	for n := 1; ; n++ {
		abandoned := &atomic.Bool{}
		script := func() error {
			runMu.Lock()
			defer runMu.Unlock()
			if abandoned.Load() {
				return ErrWalltime
			}
			return run()
		}
		attemptStart := time.Now()
		j, err := e.System.SubmitRequest(Request{
			Name: e.JobName, Nodes: nodes, Walltime: wall,
			ForecastSized: sized, Script: script,
		})
		if err != nil {
			return queueWait, err
		}
		err = e.System.Wait(j)
		if attempt != nil {
			attempt(n, j.WaitTime(), errors.Is(err, ErrWalltime), attemptStart, time.Now())
		}
		queueWait += j.WaitTime()
		e.mu.Lock()
		e.stats.QueueWait += j.WaitTime()
		if j.Backfilled() {
			e.stats.Backfilled++
		}
		e.mu.Unlock()
		if !errors.Is(err, ErrWalltime) {
			return queueWait, err
		}
		abandoned.Store(true)
		e.mu.Lock()
		e.stats.OverrunKills++
		if n >= maxAttempts {
			e.mu.Unlock()
			return queueWait, err
		}
		e.stats.Requeues++
		e.mu.Unlock()
		wall = time.Duration(float64(wall) * pol.RequeueFactor)
	}
}
