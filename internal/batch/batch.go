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
// Forecast sizing also feeds back into the queue: the backfill pass prefers
// forecast-sized jobs when several candidates fit a shadow window
// (OrderBackfill), because their tight walltimes waste the least of the
// window, and per-job queue waits are tracked (SystemStats, Job.WaitTime)
// so the ForecastExecutor can report each solve's real reservation wait to
// the SeD's CoRI wait-on-depth regression.
package batch

import (
	"errors"
	"fmt"
	"sort"
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
	// shadow window (see OrderBackfill).
	ForecastSized bool
	Script        func() error

	mu         sync.Mutex
	state      JobState
	err        error
	submit     time.Time
	start      time.Time
	end        time.Time
	backfilled bool        // started ahead of FIFO order by the backfill pass
	headBound  time.Time   // tightest shadow bound recorded while this job was the protected head
	watchdog   *time.Timer // walltime kill timer (EnforceWalltime); guarded by mu
	finished   chan struct{}
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

	mu      sync.Mutex
	nextID  int
	free    int
	queue   []*Job
	running map[int]*Job
	closed  bool

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
	return &System{cfg: cfg, free: cfg.TotalNodes, running: make(map[int]*Job)}, nil
}

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
	j := &Job{
		ID: s.nextID, Name: r.Name, Nodes: r.Nodes, Walltime: r.Walltime,
		ForecastSized: r.ForecastSized,
		Script:        r.Script, state: Waiting, submit: time.Now(),
		finished: make(chan struct{}),
	}
	s.queue = append(s.queue, j)
	s.submitted++
	s.schedule()
	return j, nil
}

// schedule starts every queued job that may run now. Caller holds s.mu.
// FIFO order; with Backfill enabled, later jobs that fit in the free nodes
// may start as long as the head job is not delayed (its start bound is the
// earliest completion among running jobs that frees enough nodes, estimated
// with walltimes — conservative backfilling). When several candidates fit
// the shadow window, forecast-sized jobs go first: their walltimes are
// tight bounds, so promoting them packs more real work into the window than
// the padded fixed grants (OrderBackfill is the shared policy).
func (s *System) schedule() {
	if len(s.queue) == 0 {
		return
	}
	// Start from the head while it fits.
	for len(s.queue) > 0 && s.queue[0].Nodes <= s.free {
		s.startLocked(s.queue[0], false)
		s.queue = s.queue[1:]
	}
	if !s.cfg.Backfill || len(s.queue) < 2 || s.free == 0 {
		return
	}
	head := s.queue[0]
	shadow := s.headStartBound(head)
	cands := make([]BackfillCandidate, 0, len(s.queue)-1)
	for i, j := range s.queue[1:] {
		cands = append(cands, BackfillCandidate{
			Queue: i + 1, Nodes: j.Nodes, Walltime: j.Walltime, ForecastSized: j.ForecastSized,
		})
	}
	picks := SelectBackfill(cands, s.free, shadow.Sub(time.Now()))
	if len(picks) == 0 {
		return
	}
	// Record the bound this pass promises the head; every later start must
	// keep it (the shadow-time invariant the property tests assert).
	head.mu.Lock()
	if head.headBound.IsZero() || shadow.Before(head.headBound) {
		head.headBound = shadow
	}
	head.mu.Unlock()
	started := make(map[int]bool, len(picks))
	for _, c := range picks {
		started[c.Queue] = true
		s.startLocked(s.queue[c.Queue], true)
	}
	rest := make([]*Job, 0, len(s.queue)-len(started))
	for i, j := range s.queue {
		if !started[i] {
			rest = append(rest, j)
		}
	}
	s.queue = rest
}

// BackfillCandidate is the scheduler-independent view of one queued job a
// backfill pass may promote. It exists so the live System and the
// simulator's virtual-time batch mirror rank candidates through one policy.
type BackfillCandidate struct {
	Queue         int // position in the wait queue — the FIFO tiebreak
	Nodes         int
	Walltime      time.Duration
	ForecastSized bool
}

// OrderBackfill sorts backfill candidates into the order the scheduler
// tries them: forecast-sized jobs first (their walltimes are tight bounds,
// so they waste the least of the shadow window and their projected ends are
// trustworthy), then tighter walltimes, then submission order.
func OrderBackfill(cands []BackfillCandidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].ForecastSized != cands[j].ForecastSized {
			return cands[i].ForecastSized
		}
		if cands[i].Walltime != cands[j].Walltime {
			return cands[i].Walltime < cands[j].Walltime
		}
		return cands[i].Queue < cands[j].Queue
	})
}

// SelectBackfill is the complete conservative-backfill candidate policy:
// from the queued jobs behind the head, keep those that fit the free nodes
// now and whose walltime ends inside the head's shadow window, rank them
// with OrderBackfill, and greedily admit while nodes remain. The picks are
// returned in start order. Both System.schedule and the simulator's
// virtual-time batch model (simgrid.SimulateBatchQueue) select through this
// one function, so the two policies cannot drift.
func SelectBackfill(cands []BackfillCandidate, free int, window time.Duration) []BackfillCandidate {
	fit := make([]BackfillCandidate, 0, len(cands))
	for _, c := range cands {
		if c.Nodes <= free && c.Walltime < window {
			fit = append(fit, c)
		}
	}
	OrderBackfill(fit)
	var picks []BackfillCandidate
	for _, c := range fit {
		if c.Nodes <= free {
			free -= c.Nodes
			picks = append(picks, c)
		}
	}
	return picks
}

// headStartBound estimates when enough nodes free up for the head job,
// assuming running jobs use their full walltime.
func (s *System) headStartBound(head *Job) time.Time {
	type release struct {
		at    time.Time
		nodes int
	}
	var rel []release
	for _, j := range s.running {
		j.mu.Lock()
		rel = append(rel, release{at: j.start.Add(j.Walltime), nodes: j.Nodes})
		j.mu.Unlock()
	}
	sort.Slice(rel, func(i, k int) bool { return rel[i].at.Before(rel[k].at) })
	free := s.free
	for _, r := range rel {
		free += r.nodes
		if free >= head.Nodes {
			return r.at
		}
	}
	// Should not happen (job validated against TotalNodes); far future.
	return time.Now().Add(24 * time.Hour)
}

// startLocked transitions a job to Running and launches its script. The job
// settles exactly once: on script completion, or — with EnforceWalltime —
// at walltime expiry if the script is still running, whichever comes first.
// Queue wait (submit→start) is accounted here, split out for backfilled
// jobs: those waits are what the backfill policy exists to shrink, and what
// feeds the CoRI wait-on-depth regression through the ForecastExecutor.
func (s *System) startLocked(j *Job, backfilled bool) {
	s.free -= j.Nodes
	s.running[j.ID] = j
	j.mu.Lock()
	j.state = Running
	j.start = time.Now()
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
		close(j.finished)

		s.mu.Lock()
		delete(s.running, j.ID)
		s.free += j.Nodes
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
	// a trusted CoRI forecast — the candidates OrderBackfill prefers.
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
		FreeNodes:              s.free,
		Waiting:                len(s.queue),
		Running:                len(s.running),
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
