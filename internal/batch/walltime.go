package batch

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cori"
	"repro/internal/scheduler"
)

// margin is the walltime's fractional safety pad over a forecast trusted at
// full confidence.
const margin = 0.2

// The kill-and-requeue budget of a ForecastExecutor, which the simulator's
// batch mirrors replay: an attempt killed at its walltime requeues with the
// grant multiplied by RequeueFactor — the kill proves the grant too small,
// so the requeue doubles it rather than re-trusting the forecast — and a
// solve fails once MaxAttempts attempts have been killed.
const (
	RequeueFactor = 2
	MaxAttempts   = 3
)

// WalltimePolicy sizes reservation walltimes from CoRI duration forecasts,
// replacing the fixed grant the paper's batch submissions used. The sized
// walltime is forecast × (1 + margin/confidence): at full confidence the pad
// is 20%, and as the model goes stale the pad widens in proportion, so a
// half-trusted model gets twice the safety margin. With no trusted forecast
// at all (cold monitor, or confidence below scheduler.MinConfidence) the
// policy falls back to the Fixed grant.
type WalltimePolicy struct {
	// Fixed is the fallback grant when no trusted forecast exists
	// (default 2h, a typical user walltime request).
	Fixed time.Duration
}

// Size picks the walltime for one solve: the forecast-derived walltime when
// the monitor's model for the service prices the work through
// scheduler.Estimate.PredictSeconds, else the fixed grant. sized reports
// which path was taken. The live ForecastExecutor and the simulator's
// virtual-time mirror both size through it, so the two paths cannot drift.
func (p WalltimePolicy) Size(m *cori.Monitor, service string, workGFlops float64) (wall time.Duration, sized bool) {
	if m != nil {
		if model, ok := m.Model(service); ok {
			var est scheduler.Estimate
			model.ApplyToEstimate(&est, 0)
			if forecastS, byModel := est.PredictSeconds(workGFlops); byModel {
				return time.Duration(forecastS * (1 + margin/min(model.Confidence, 1)) * float64(time.Second)), true
			}
		}
	}
	if p.Fixed <= 0 {
		return 2 * time.Hour, false
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
// RequeueFactor-widened grant up to MaxAttempts attempts. Invocations of the
// body are serialised across attempts (Go cannot kill a killed attempt's
// goroutine, so the requeue waits it out rather than overlapping it), but a
// body that completed inside a killed grant may still re-run — solve bodies
// routed through a walltime-enforced System must be idempotent.
type ForecastExecutor struct {
	System  *System
	JobName string
	Nodes   int
	Policy  WalltimePolicy

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
	nodes := e.Nodes
	if nodes < 1 {
		nodes = 1
	}
	wall, sized := e.Policy.Size(monitor, service, workGFlops)
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
		if n >= MaxAttempts {
			e.mu.Unlock()
			return queueWait, err
		}
		e.stats.Requeues++
		e.mu.Unlock()
		wall = time.Duration(float64(wall) * RequeueFactor)
	}
}
