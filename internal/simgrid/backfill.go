package simgrid

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/cori"
	"repro/internal/scheduler"
)

// This file replays the batch queue's conservative backfilling in virtual
// time and runs the backfill ablation (A9): what forecast-sized walltimes
// buy *inside the queue*. The paper's follow-up ("Cosmological Simulations
// on a Grid of Computers") found queue wait — not compute — dominating
// campaign makespan on shared clusters; conservative backfill can recover
// some of that wait, but only when walltimes are tight enough to fit the
// shadow windows. SimulateBatchQueue drives batch.Queue, the scheduling
// pass the live batch.System runs, with a virtual clock — arrivals,
// releases and kill-and-requeue at walltime expiry are its own — and
// RunBackfillAblation compares no backfill, fixed-grant backfill and
// forecast-sized backfill on the CanonicalSkew platform.

// BatchQueueJob is one reservation in the virtual-time cluster batch queue.
// Inputs describe the submission; the Simulate* fields report what the
// scheduler did with it.
type BatchQueueJob struct {
	ID      int
	ArriveS float64 // virtual submission time
	Nodes   int
	WallS   float64 // granted walltime (first attempt; kills widen it)
	RunS    float64 // true compute time of the script
	Sized   bool    // walltime derived from a trusted CoRI forecast

	// Outputs, filled by SimulateBatchQueue.
	StartS     float64 // compute start of the completing attempt
	EndS       float64 // completion of the final attempt
	WaitS      float64 // queue wait (enqueue→start), summed over attempts
	Backfilled bool    // some attempt started ahead of FIFO order
	Kills      int     // attempts killed at walltime expiry
	Failed     bool    // exhausted the attempt budget (job never completed)
	// HeadBoundS is the tightest shadow bound a backfill pass promised the
	// job's last-started attempt while it was the protected head of the
	// queue, or -1 when no pass ever backfilled against it.
	HeadBoundS float64
	// ShadowViolations counts attempts that started later than a shadow
	// bound promised to them while they were head of the queue. Honest
	// conservative backfilling keeps this at 0 — the shadow-time invariant
	// the property tests assert.
	ShadowViolations int
}

// BatchQueueConfig sizes the virtual cluster queue. A killed attempt
// requeues with its grant widened by batch.RequeueFactor, up to
// batch.MaxAttempts attempts — the live executor's budget.
type BatchQueueConfig struct {
	Nodes    int
	Backfill bool
}

// SimulateBatchQueue replays the job stream through the OAR-style queue in
// virtual time. It is an event loop around batch.Queue, the pass the live
// batch.System runs: the queue schedules at arrivals and releases, the way
// System schedules on Submit and on job settle. An attempt whose script
// outlives its grant is killed at expiry and requeued with a
// batch.RequeueFactor-widened grant up to batch.MaxAttempts attempts. Jobs
// are mutated in place.
func SimulateBatchQueue(cfg BatchQueueConfig, jobs []*BatchQueueJob) error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("simgrid: batch queue needs >= 1 node, got %d", cfg.Nodes)
	}
	for _, j := range jobs {
		if j.Nodes < 1 || j.Nodes > cfg.Nodes {
			return fmt.Errorf("simgrid: job %d requests %d nodes, cluster has %d", j.ID, j.Nodes, cfg.Nodes)
		}
		if j.WallS <= 0 || j.RunS <= 0 {
			return fmt.Errorf("simgrid: job %d needs positive walltime and runtime", j.ID)
		}
		j.HeadBoundS = -1
	}
	arrivals := append([]*BatchQueueJob(nil), jobs...)
	sort.SliceStable(arrivals, func(i, k int) bool { return arrivals[i].ArriveS < arrivals[k].ArriveS })

	type attempt = batch.Entry[*BatchQueueJob]
	q := batch.NewQueue[*BatchQueueJob](cfg.Nodes, cfg.Backfill)
	var running []*attempt // in start order, like the queue's own list
	start := func(a *attempt) {
		j := a.Job
		j.WaitS += a.StartS - a.EnqueueS
		j.StartS = a.StartS
		if a.Backfilled {
			j.Backfilled = true
		}
		if a.HeadBoundS >= 0 {
			j.HeadBoundS = a.HeadBoundS
			if a.StartS > a.HeadBoundS+1e-6 {
				j.ShadowViolations++
			}
		}
		running = append(running, a)
	}
	// An attempt ends at its walltime when the script outlives it.
	release := func(a *attempt) float64 { return a.StartS + min(a.Job.RunS, a.WallS) }

	next := 0
	for next < len(arrivals) || q.Waiting() > 0 || len(running) > 0 {
		t := math.Inf(1)
		if next < len(arrivals) {
			t = arrivals[next].ArriveS
		}
		for _, a := range running {
			if r := release(a); r < t {
				t = r
			}
		}
		if math.IsInf(t, 1) {
			return fmt.Errorf("simgrid: batch queue wedged with %d jobs waiting", q.Waiting())
		}
		keep := running[:0]
		for _, a := range running {
			r := release(a)
			if r > t {
				keep = append(keep, a)
				continue
			}
			q.Release(a)
			j := a.Job
			if j.RunS <= a.WallS {
				j.EndS = r
				continue
			}
			// Killed at expiry: the attempt's compute is thrown away and the
			// job requeues at the tail with a widened grant, like
			// batch.ForecastExecutor's kill-and-requeue.
			j.Kills++
			if j.Kills >= batch.MaxAttempts {
				j.Failed = true
				j.EndS = r
				continue
			}
			q.Push(&attempt{Job: j, Nodes: j.Nodes, WallS: a.WallS * batch.RequeueFactor, Sized: j.Sized}, t)
		}
		running = keep
		for next < len(arrivals) && arrivals[next].ArriveS <= t {
			j := arrivals[next]
			q.Push(&attempt{Job: j, Nodes: j.Nodes, WallS: j.WallS, Sized: j.Sized}, j.ArriveS)
			next++
		}
		q.Schedule(t, start)
	}
	return nil
}

// BackfillArm aggregates one arm of the backfill ablation.
type BackfillArm struct {
	Name           string
	MeanWaitS      float64 // mean queue wait over all jobs
	MaxWaitS       float64
	MakespanS      float64 // last completion
	Backfilled     int     // jobs started ahead of FIFO order
	SizedBackfills int     // forecast-sized jobs among the backfilled
	ForecastSized  int     // jobs whose walltime came from a trusted forecast
	OverrunKills   int     // attempts killed at walltime expiry
}

// BackfillAblationConfig is empty: the A9 cluster and job stream are fixed
// by the constants below. The type stays because the repository benchmark
// (bench/suite.go) passes its zero value to RunBackfillAblation.
type BackfillAblationConfig struct{}

// The A9 cluster and job stream.
const (
	// backfillNodes is the virtual cluster the job stream is packed onto:
	// fewer than the deployment's 11 SeDs, so the queue is contended, with
	// enough width that wide jobs leave backfillable slack.
	backfillNodes = 8
	// Every backfillWideEvery-th job is a wide ensemble run of
	// backfillWideNodes nodes that blocks the queue head and opens backfill
	// windows.
	backfillWideEvery = 7
	backfillWideNodes = backfillNodes - 2
)

// BackfillAblationResult compares the three arms of A9 on one job stream.
type BackfillAblationResult struct {
	Jobs  int
	Nodes int

	// NoBackfill runs the stream pure FIFO with user-bucketed fixed grants.
	NoBackfill BackfillArm
	// FixedGrant enables conservative backfill over the same user-bucketed
	// grants — what backfill buys when walltimes are padded user guesses.
	FixedGrant BackfillArm
	// Forecast enables backfill with walltimes sized from the trained CoRI
	// models through batch.WalltimePolicy — tight bounds fit shadow windows
	// the padded grants cannot.
	Forecast BackfillArm
}

// WaitGainPct is the mean-queue-wait saving of forecast-sized backfill over
// fixed-grant backfill — the headline A9 number.
func (r *BackfillAblationResult) WaitGainPct() float64 {
	if r.FixedGrant.MeanWaitS <= 0 {
		return 0
	}
	return 100 * (r.FixedGrant.MeanWaitS - r.Forecast.MeanWaitS) / r.FixedGrant.MeanWaitS
}

// MakespanGainPct is the makespan saving of forecast-sized backfill over
// fixed-grant backfill.
func (r *BackfillAblationResult) MakespanGainPct() float64 {
	if r.FixedGrant.MakespanS <= 0 {
		return 0
	}
	return 100 * (r.FixedGrant.MakespanS - r.Forecast.MakespanS) / r.FixedGrant.MakespanS
}

// BackfillValuePct is the mean-queue-wait saving of forecast-sized backfill
// over no backfill at all.
func (r *BackfillAblationResult) BackfillValuePct() float64 {
	if r.NoBackfill.MeanWaitS <= 0 {
		return 0
	}
	return 100 * (r.NoBackfill.MeanWaitS - r.Forecast.MeanWaitS) / r.NoBackfill.MeanWaitS
}

// userGrantBuckets are the round walltimes users actually request: the
// true runtime padded by half, rounded up to the next bucket.
var userGrantBuckets = []float64{2 * 3600, 6 * 3600, 12 * 3600, 24 * 3600}

func userGrantS(runS float64) float64 {
	want := 1.5 * runS
	for _, b := range userGrantBuckets {
		if b >= want {
			return b
		}
	}
	return userGrantBuckets[len(userGrantBuckets)-1]
}

// RunBackfillAblation runs A9: train CoRI monitors over TrainingRounds-1
// campaigns on the CanonicalSkew platform (forecast-aware scheduling,
// exactly like the other trained ablations), take the measured campaign's
// solves as a batch job stream — each record's true duration, work size and
// submission time, with every backfillWideEvery-th job widened into a
// multi-node ensemble run — and pack it onto a contended virtual cluster
// three ways: pure FIFO, backfill over user-bucketed fixed grants, and
// backfill over forecast-sized grants (batch.WalltimePolicy.Size over the
// per-SeD trained model, the call the live ForecastExecutor makes). Queue-wait and makespan tell how
// much of the follow-up paper's dominant cost forecast sizing recovers.
func RunBackfillAblation(mkCfg func() ExperimentConfig, _ BackfillAblationConfig) (*BackfillAblationResult, error) {
	cfg := mkCfg()
	cfg.Policy = scheduler.NewForecastAware()
	cfg.Forecast = true
	cfg.TruePowerFactor = CanonicalSkew
	cfg.CoRI.HalfLife = TrainingHalfLife
	cfg.Monitors = make(map[string]*cori.Monitor, len(cfg.Deployment.SeDs))
	results, err := RunExperimentRounds(cfg, TrainingRounds)
	if err != nil {
		return nil, fmt.Errorf("simgrid: backfill ablation training: %w", err)
	}
	final := results[len(results)-1]
	if len(final.Records) < 2*backfillWideEvery {
		return nil, fmt.Errorf("simgrid: backfill ablation needs >= %d requests, got %d", 2*backfillWideEvery, len(final.Records))
	}

	// One job template per measured solve; per-arm copies are re-sized below.
	type jobSpec struct {
		arriveS, runS, workGFlops float64
		nodes                     int
		sed                       string
	}
	specs := make([]jobSpec, len(final.Records))
	for i, rec := range final.Records {
		nodes := 1
		if (i+1)%backfillWideEvery == 0 {
			nodes = backfillWideNodes
		}
		specs[i] = jobSpec{
			arriveS: rec.SubmitS, runS: rec.DurationS(), workGFlops: rec.WorkGFlops,
			nodes: nodes, sed: rec.SeD,
		}
	}

	mkJobs := func(forecastSized bool) []*BatchQueueJob {
		out := make([]*BatchQueueJob, len(specs))
		for i, sp := range specs {
			j := &BatchQueueJob{
				ID: i + 1, ArriveS: sp.arriveS, Nodes: sp.nodes,
				RunS: sp.runS, WallS: userGrantS(sp.runS),
			}
			if forecastSized {
				// The live ForecastExecutor's sizing call, falling back to
				// the user's grant on a cold model.
				pol := batch.WalltimePolicy{Fixed: time.Duration(j.WallS * float64(time.Second))}
				if w, sized := pol.Size(cfg.Monitors[sp.sed], phase2Service, sp.workGFlops); sized {
					j.WallS, j.Sized = w.Seconds(), true
				}
			}
			out[i] = j
		}
		return out
	}

	runArm := func(name string, backfill, forecastSized bool) (BackfillArm, error) {
		jobs := mkJobs(forecastSized)
		if err := SimulateBatchQueue(BatchQueueConfig{Nodes: backfillNodes, Backfill: backfill}, jobs); err != nil {
			return BackfillArm{}, fmt.Errorf("simgrid: backfill ablation %s arm: %w", name, err)
		}
		arm := BackfillArm{Name: name}
		var sumWait float64
		for _, j := range jobs {
			if j.Failed {
				return BackfillArm{}, fmt.Errorf("simgrid: backfill ablation %s arm: job %d exhausted its attempt budget", name, j.ID)
			}
			sumWait += j.WaitS
			if j.WaitS > arm.MaxWaitS {
				arm.MaxWaitS = j.WaitS
			}
			if j.EndS > arm.MakespanS {
				arm.MakespanS = j.EndS
			}
			if j.Backfilled {
				arm.Backfilled++
				if j.Sized {
					arm.SizedBackfills++
				}
			}
			if j.Sized {
				arm.ForecastSized++
			}
			arm.OverrunKills += j.Kills
		}
		arm.MeanWaitS = sumWait / float64(len(jobs))
		return arm, nil
	}

	out := &BackfillAblationResult{Jobs: len(specs), Nodes: backfillNodes}
	if out.NoBackfill, err = runArm("no backfill", false, false); err != nil {
		return nil, err
	}
	if out.FixedGrant, err = runArm("fixed-grant backfill", true, false); err != nil {
		return nil, err
	}
	if out.Forecast, err = runArm("forecast-sized backfill", true, true); err != nil {
		return nil, err
	}
	return out, nil
}
