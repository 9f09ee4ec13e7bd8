package batch

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// headBoundOf reads the shadow bound recorded while j was the protected
// head of a backfill pass (zero when no pass ever backfilled against it).
func headBoundOf(j *Job) time.Time {
	if j.entry.HeadBoundS < 0 {
		return time.Time{}
	}
	return epoch.Add(time.Duration(j.entry.HeadBoundS * float64(time.Second)))
}

func startOf(j *Job) time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.start
}

// TestBackfillPrefersForecastSized pins the candidate-selection policy on
// the live System: when one node frees under a blocked wide head, the
// forecast-sized candidate wins it over an earlier-submitted fixed-grant
// candidate of the same walltime.
func TestBackfillPrefersForecastSized(t *testing.T) {
	s, err := New(Config{TotalNodes: 2, Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Int32
	order := make(map[string]int32)
	var orderMu sync.Mutex
	script := func(name string, d time.Duration) func() error {
		return func() error {
			orderMu.Lock()
			order[name] = seq.Add(1)
			orderMu.Unlock()
			time.Sleep(d)
			return nil
		}
	}
	// Both nodes busy: a1 releases first, a2 keeps a 10 s walltime bound the
	// shadow window is computed from.
	a1, _ := s.Submit("a1", 1, 10*time.Second, script("a1", 60*time.Millisecond))
	a2, _ := s.Submit("a2", 1, 10*time.Second, script("a2", 250*time.Millisecond))
	// Wide head: must wait for both nodes.
	head, _ := s.Submit("head", 2, time.Second, script("head", time.Millisecond))
	// Two 1-node candidates with identical walltimes; the sized one was
	// submitted later but must win the node a1 frees.
	fixed, _ := s.Submit("fixed", 1, 200*time.Millisecond, script("fixed", 40*time.Millisecond))
	sized, _ := s.SubmitRequest(Request{
		Name: "sized", Nodes: 1, Walltime: 200 * time.Millisecond, ForecastSized: true,
		Script: script("sized", 40*time.Millisecond),
	})
	for _, j := range []*Job{a1, a2, head, fixed, sized} {
		if err := s.Wait(j); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
	}
	if !sized.Backfilled() || !fixed.Backfilled() {
		t.Fatalf("both candidates must backfill (sized %v, fixed %v)", sized.Backfilled(), fixed.Backfilled())
	}
	if order["sized"] > order["fixed"] {
		t.Fatalf("the forecast-sized candidate must start first: order %v", order)
	}
	st := s.Stats()
	if st.Backfilled < 2 || st.ForecastSizedBackfills < 1 {
		t.Fatalf("backfill accounting: %+v", st)
	}
	if st.QueueWait <= 0 || st.Started != 5 {
		t.Fatalf("queue-wait accounting: %+v", st)
	}
	if bound := headBoundOf(head); bound.IsZero() {
		t.Fatal("the blocked head must have been promised a shadow bound")
	} else if startOf(head).After(bound) {
		t.Fatalf("head start %v is past its promised bound %v", startOf(head), bound)
	}
}

// TestBackfillNeverDelaysHead is the shadow-time property test: under
// random arrival/walltime mixes — with and without forecast sizing — no job
// that was the protected head of a backfill pass ever starts later than the
// shadow bound the pass was built on. Runs under -race in CI.
func TestBackfillNeverDelaysHead(t *testing.T) {
	// Scheduling happens on completion events; the bound itself is built
	// from walltimes, which the scripts undershoot by 2-5x, so the slack
	// only absorbs goroutine wake-up latency.
	const slack = 250 * time.Millisecond
	for seed := int64(0); seed < 6; seed++ {
		for _, sizing := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			nodes := 2 + rng.Intn(4)
			s, err := New(Config{TotalNodes: nodes, Backfill: true})
			if err != nil {
				t.Fatal(err)
			}
			njobs := 15 + rng.Intn(21)
			jobs := make([]*Job, 0, njobs)
			for i := 0; i < njobs; i++ {
				width := 1
				switch rng.Intn(5) {
				case 3:
					width = 1 + rng.Intn(nodes)
				case 4:
					width = nodes
				}
				wall := time.Duration(20+rng.Intn(41)) * time.Millisecond
				run := wall * time.Duration(20+rng.Intn(31)) / 100
				j, err := s.SubmitRequest(Request{
					Name: "j", Nodes: width, Walltime: wall,
					ForecastSized: sizing && rng.Intn(2) == 0,
					Script:        func() error { time.Sleep(run); return nil },
				})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				if rng.Intn(3) == 0 {
					time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				}
			}
			backfilled := 0
			for _, j := range jobs {
				if err := s.Wait(j); err != nil {
					t.Fatalf("seed %d sizing %v: %v", seed, sizing, err)
				}
				if j.Backfilled() {
					backfilled++
				}
				if bound := headBoundOf(j); !bound.IsZero() {
					if d := startOf(j).Sub(bound); d > slack {
						t.Fatalf("seed %d sizing %v: head job %d delayed %v past its shadow bound", seed, sizing, j.ID, d)
					}
				}
			}
			st := s.Stats()
			if st.Completed != njobs || st.FreeNodes != nodes || st.Started != njobs {
				t.Fatalf("seed %d sizing %v: conservation broken: %+v", seed, sizing, st)
			}
			if st.Backfilled != backfilled {
				t.Fatalf("seed %d sizing %v: stats count %d backfills, jobs say %d", seed, sizing, st.Backfilled, backfilled)
			}
			if st.QueueWait < st.BackfillQueueWait {
				t.Fatalf("seed %d sizing %v: backfill wait cannot exceed total wait: %+v", seed, sizing, st)
			}
		}
	}
}

// TestForecastExecutorReportsQueueWait checks the wait plumbing the SeD
// feeds to the CoRI wait-on-depth regression: Execute reports the
// time the reservation actually waited for nodes.
func TestForecastExecutorReportsQueueWait(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1, Backfill: true})
	release := make(chan struct{})
	blocker, _ := s.Submit("blocker", 1, time.Minute, func() error { <-release; return nil })

	now := time.Unix(1_000_000, 0)
	e := &ForecastExecutor{
		System: s, JobName: "solve", Nodes: 1,
		Policy: WalltimePolicy{Fixed: time.Minute},
	}
	done := make(chan error, 1)
	var wait time.Duration
	go func() {
		var err error
		wait, err = e.Execute("svc", 0, trainedMonitor(&now), func() error { return nil }, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(blocker); err != nil {
		t.Fatal(err)
	}
	if wait < 30*time.Millisecond {
		t.Fatalf("reported queue wait %v, want >= the ~50 ms the node was held", wait)
	}
	st := e.Stats()
	if st.QueueWait < wait {
		t.Fatalf("executor stats wait %v must accumulate the reported %v", st.QueueWait, wait)
	}
	if st.ForecastSized != 1 {
		t.Fatalf("trained monitor must size the reservation: %+v", st)
	}
}
