// Package batch implements an OAR-style cluster batch system: jobs request a
// number of nodes and a walltime, wait in a queue scheduled FIFO with
// conservative backfilling, and run when their reservation starts. The paper
// names "transparent reservations of the resources on batch systems like
// OAR" as the DIET batch-system integration (§8); this package provides that
// substrate plus the Executor adapters a SeD plugs in.
//
// Walltimes can be enforced (Config.EnforceWalltime): a job still running
// when its grant expires is killed, the way OAR reclaims a reservation. That
// makes walltime sizing a real trade-off — too short and the job is killed
// and must requeue, too long and the reservation pads idle — which
// WalltimePolicy resolves by sizing each grant from the SeD's CoRI duration
// forecast plus a confidence-scaled margin, falling back to a fixed grant
// while the monitor is cold. ForecastExecutor wires that policy into
// diet.SeD solves and tracks the overrun-kill and idle-pad metrics.
//
// The scheduling pass itself is Queue, which has no clock: System drives it
// on the wall clock, and the simulator's batch replay
// (simgrid.SimulateBatchQueue) drives the same pass in virtual time.
// Forecast sizing also feeds back into the queue: the backfill pass prefers
// forecast-sized jobs when several candidates fit a shadow window, because
// their tight walltimes waste the least of the window, and per-job queue
// waits are tracked (SystemStats, Job.WaitTime) so the ForecastExecutor can
// report each solve's real reservation wait to the SeD's CoRI wait-on-depth
// regression.
package batch

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrWalltime reports a job killed because its script outlived its
// reservation (EnforceWalltime).
var ErrWalltime = errors.New("batch: walltime exceeded")

// JobState is the lifecycle state of a batch job.
type JobState int

// Job states.
const (
	Waiting JobState = iota
	Running
	Done
	Failed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Waiting:
		return "Waiting"
	case Running:
		return "Running"
	case Done:
		return "Done"
	case Failed:
		return "Failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one batch submission.
type Job struct {
	ID       int
	Name     string
	Nodes    int
	Walltime time.Duration
	// ForecastSized marks a walltime derived from a trusted CoRI forecast
	// rather than a fixed user grant. Sized walltimes are tight bounds, so
	// the backfill pass prefers these jobs when several candidates fit the
	// shadow window (see Queue.Schedule).
	ForecastSized bool
	Script        func() error

	mu         sync.Mutex
	state      JobState
	err        error
	submit     time.Time
	start      time.Time
	end        time.Time
	backfilled bool        // started ahead of FIFO order by the backfill pass
	watchdog   *time.Timer // walltime kill timer (EnforceWalltime); guarded by mu
	finished   chan struct{}
	entry      *Entry[*Job] // the job's place in the System's queue
}

// Err returns the script error after completion.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// WaitTime returns how long the job waited in queue (valid once started).
func (j *Job) WaitTime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.start.IsZero() {
		return 0
	}
	return j.start.Sub(j.submit)
}

// Backfilled reports whether the job was started ahead of FIFO order by the
// backfill pass (valid once started).
func (j *Job) Backfilled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.backfilled
}

// Config sizes the managed cluster.
type Config struct {
	TotalNodes int
	// Backfill enables conservative backfilling: a queued job may jump ahead
	// when it fits in the currently free nodes without delaying the head job
	// (using walltime as the head job's runtime bound).
	Backfill bool
	// EnforceWalltime kills a job whose script is still running when its
	// walltime expires: the job fails with ErrWalltime and its nodes are
	// reclaimed. The script's goroutine cannot be interrupted from outside,
	// so it keeps running to completion with its result discarded — scripts
	// that hold external resources should watch for cancellation themselves.
	EnforceWalltime bool
}

// System is the batch scheduler for one cluster.
type System struct {
	cfg Config

	mu     sync.Mutex
	nextID int
	q      *Queue[*Job]
	closed bool

	// stats
	submitted      int
	started        int
	completed      int
	failed         int
	overrunKills   int
	idlePad        time.Duration // walltime minus runtime, summed over completed jobs
	reserved       time.Duration // walltime granted, summed over finished jobs
	queueWait      time.Duration // submit→start, summed over started jobs
	backfilled     int           // jobs started ahead of FIFO order
	backfillWait   time.Duration // submit→start, summed over backfilled jobs
	sizedBackfills int           // forecast-sized jobs among the backfilled
}

// New creates a batch system managing cfg.TotalNodes nodes.
func New(cfg Config) (*System, error) {
	if cfg.TotalNodes < 1 {
		return nil, fmt.Errorf("batch: TotalNodes must be >= 1, got %d", cfg.TotalNodes)
	}
	return &System{cfg: cfg, q: NewQueue[*Job](cfg.TotalNodes, cfg.Backfill)}, nil
}

// epoch is the origin of the seconds System passes to its Queue.
var epoch = time.Now()

// Request describes one batch submission.
type Request struct {
	Name     string
	Nodes    int
	Walltime time.Duration
	// ForecastSized tags the walltime as derived from a trusted CoRI
	// forecast; the backfill pass prefers such jobs (see Job.ForecastSized).
	ForecastSized bool
	Script        func() error
}

// Submit enqueues a job; the script will run on a goroutine once the
// scheduler grants the reservation. Like "oarsub" it returns immediately.
func (s *System) Submit(name string, nodes int, walltime time.Duration, script func() error) (*Job, error) {
	return s.SubmitRequest(Request{Name: name, Nodes: nodes, Walltime: walltime, Script: script})
}

// SubmitRequest is Submit with the full request description, including the
// walltime's sizing provenance.
func (s *System) SubmitRequest(r Request) (*Job, error) {
	if r.Nodes < 1 || r.Nodes > s.cfg.TotalNodes {
		return nil, fmt.Errorf("batch: job %q requests %d nodes, cluster has %d", r.Name, r.Nodes, s.cfg.TotalNodes)
	}
	if r.Walltime <= 0 {
		return nil, fmt.Errorf("batch: job %q needs a positive walltime", r.Name)
	}
	if r.Script == nil {
		return nil, fmt.Errorf("batch: job %q has no script", r.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("batch: system is shut down")
	}
	s.nextID++
	now := time.Now()
	j := &Job{
		ID: s.nextID, Name: r.Name, Nodes: r.Nodes, Walltime: r.Walltime,
		ForecastSized: r.ForecastSized,
		Script:        r.Script, state: Waiting, submit: now,
		finished: make(chan struct{}),
	}
	j.entry = &Entry[*Job]{Job: j, Nodes: r.Nodes, WallS: r.Walltime.Seconds(), Sized: r.ForecastSized}
	s.q.Push(j.entry, now.Sub(epoch).Seconds())
	s.submitted++
	s.schedule()
	return j, nil
}

// schedule runs the queue's pass now and starts every job it grants.
// Caller holds s.mu.
func (s *System) schedule() {
	now := time.Now()
	s.q.Schedule(now.Sub(epoch).Seconds(), func(e *Entry[*Job]) { s.startLocked(e.Job, now, e.Backfilled) })
}

// startLocked transitions a job to Running and launches its script. The job
// settles exactly once: on script completion, or — with EnforceWalltime —
// at walltime expiry if the script is still running, whichever comes first.
// Queue wait (submit→start) is accounted here, split out for backfilled
// jobs: those waits are what the backfill policy exists to shrink, and what
// feeds the CoRI wait-on-depth regression through the ForecastExecutor.
func (s *System) startLocked(j *Job, now time.Time, backfilled bool) {
	j.mu.Lock()
	j.state = Running
	j.start = now
	j.backfilled = backfilled
	wait := j.start.Sub(j.submit)
	j.mu.Unlock()
	s.started++
	s.queueWait += wait
	if backfilled {
		s.backfilled++
		s.backfillWait += wait
		if j.ForecastSized {
			s.sizedBackfills++
		}
	}

	settle := func(err error) {
		j.mu.Lock()
		if j.state != Running { // the other path settled first
			j.mu.Unlock()
			return
		}
		j.end = time.Now()
		runtime := j.end.Sub(j.start)
		if err != nil {
			j.state = Failed
			j.err = err
		} else {
			j.state = Done
		}
		if j.watchdog != nil {
			j.watchdog.Stop()
		}
		j.mu.Unlock()

		s.mu.Lock()
		s.q.Release(j.entry)
		s.reserved += j.Walltime
		switch {
		case errors.Is(err, ErrWalltime):
			s.failed++
			s.overrunKills++
		case err != nil:
			s.failed++
		default:
			s.completed++
			if pad := j.Walltime - runtime; pad > 0 {
				s.idlePad += pad
			}
		}
		s.schedule()
		s.mu.Unlock()
		// Only now may Wait return: the system has counted the job and
		// returned its nodes.
		close(j.finished)
	}

	if s.cfg.EnforceWalltime {
		// Publish the timer handle under j.mu: the AfterFunc callback may
		// fire before the assignment would otherwise be visible, and settle
		// reads the handle from other goroutines.
		t := time.AfterFunc(j.Walltime, func() { settle(ErrWalltime) })
		j.mu.Lock()
		if j.state == Running {
			j.watchdog = t
		} else {
			t.Stop() // the watchdog itself already settled this job
		}
		j.mu.Unlock()
	}
	go func() { settle(j.Script()) }()
}

// Wait blocks until the job finishes and returns its script error.
func (s *System) Wait(j *Job) error {
	<-j.finished
	return j.Err()
}

// SystemStats is a snapshot of the system.
type SystemStats struct {
	TotalNodes int
	FreeNodes  int
	Waiting    int
	Running    int
	Submitted  int
	Completed  int
	Failed     int
	// OverrunKills counts jobs killed at walltime expiry (EnforceWalltime);
	// they are included in Failed.
	OverrunKills int
	// IdlePad is the reservation time completed jobs granted but never used
	// (walltime − runtime, summed) — what oversized grants cost the cluster.
	IdlePad time.Duration
	// Reserved is the total walltime granted to finished jobs, the
	// denominator that turns IdlePad into a utilisation figure.
	Reserved time.Duration
	// Started counts jobs that have left the queue (includes running ones).
	Started int
	// QueueWait is submit→start time summed over started jobs; divide by
	// Started for the mean wait the batch queue imposed.
	QueueWait time.Duration
	// Backfilled counts jobs started ahead of FIFO order, and
	// BackfillQueueWait their summed waits — the queue time the backfill
	// pass recovered from shadow windows.
	Backfilled        int
	BackfillQueueWait time.Duration
	// ForecastSizedBackfills counts backfilled jobs whose walltime came from
	// a trusted CoRI forecast — the candidates the backfill pass prefers.
	ForecastSizedBackfills int
}

// MeanQueueWait is the average submit→start wait over started jobs.
func (st SystemStats) MeanQueueWait() time.Duration {
	if st.Started == 0 {
		return 0
	}
	return st.QueueWait / time.Duration(st.Started)
}

// Stats returns a snapshot of queue and node occupancy.
func (s *System) Stats() SystemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SystemStats{
		TotalNodes:             s.cfg.TotalNodes,
		FreeNodes:              s.q.Free(),
		Waiting:                s.q.Waiting(),
		Running:                s.q.Running(),
		Submitted:              s.submitted,
		Completed:              s.completed,
		Failed:                 s.failed,
		OverrunKills:           s.overrunKills,
		IdlePad:                s.idlePad,
		Reserved:               s.reserved,
		Started:                s.started,
		QueueWait:              s.queueWait,
		Backfilled:             s.backfilled,
		BackfillQueueWait:      s.backfillWait,
		ForecastSizedBackfills: s.sizedBackfills,
	}
}

// Close refuses further submissions (queued/running jobs drain normally).
func (s *System) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
