package batch

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{TotalNodes: 0}); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := New(Config{TotalNodes: 4})
	noop := func() error { return nil }
	if _, err := s.Submit("j", 0, time.Second, noop); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := s.Submit("j", 8, time.Second, noop); err == nil {
		t.Error("too many nodes should fail")
	}
	if _, err := s.Submit("j", 1, 0, noop); err == nil {
		t.Error("zero walltime should fail")
	}
	if _, err := s.Submit("j", 1, time.Second, nil); err == nil {
		t.Error("nil script should fail")
	}
}

func TestJobRunsAndCompletes(t *testing.T) {
	s, _ := New(Config{TotalNodes: 4})
	var ran atomic.Bool
	j, err := s.Submit("hello", 2, time.Minute, func() error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(j); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Error("script did not run")
	}
	if j.State() != Done {
		t.Errorf("state %s, want Done", j.State())
	}
	st := s.Stats()
	if st.Completed != 1 || st.FreeNodes != 4 {
		t.Errorf("stats %+v", st)
	}
}

func TestJobFailure(t *testing.T) {
	s, _ := New(Config{TotalNodes: 2})
	boom := errors.New("boom")
	j, _ := s.Submit("bad", 1, time.Minute, func() error { return boom })
	if err := s.Wait(j); !errors.Is(err, boom) {
		t.Errorf("Wait = %v", err)
	}
	if j.State() != Failed {
		t.Errorf("state %s", j.State())
	}
	if s.Stats().Failed != 1 {
		t.Error("failure not counted")
	}
}

func TestQueueingWhenFull(t *testing.T) {
	s, _ := New(Config{TotalNodes: 2})
	release := make(chan struct{})
	var order []int
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(id int) func() error {
		return func() error {
			<-release
			<-mu
			order = append(order, id)
			mu <- struct{}{}
			return nil
		}
	}
	j1, _ := s.Submit("a", 2, time.Minute, record(1))
	j2, _ := s.Submit("b", 2, time.Minute, record(2))
	// j2 must be waiting: the cluster is full.
	time.Sleep(10 * time.Millisecond)
	if j1.State() != Running {
		t.Errorf("j1 state %s, want Running", j1.State())
	}
	if j2.State() != Waiting {
		t.Errorf("j2 state %s, want Waiting", j2.State())
	}
	if st := s.Stats(); st.Waiting != 1 || st.Running != 1 {
		t.Errorf("stats %+v", st)
	}
	close(release)
	if err := s.Wait(j2); err != nil {
		t.Fatal(err)
	}
	if j2.WaitTime() <= 0 {
		t.Error("queued job should record a wait time")
	}
}

func TestBackfillSmallJobJumps(t *testing.T) {
	// 4 nodes; a 4-node head job is blocked behind a long 2-node runner.
	// With backfilling, a short 1-node job jumps the queue.
	s, _ := New(Config{TotalNodes: 4, Backfill: true})
	blockRunning := make(chan struct{})
	long, _ := s.Submit("long", 2, time.Hour, func() error {
		<-blockRunning
		return nil
	})
	time.Sleep(10 * time.Millisecond) // let it start

	head, _ := s.Submit("head", 4, time.Hour, func() error { return nil })
	var backfilled atomic.Bool
	small, _ := s.Submit("small", 1, time.Millisecond, func() error {
		backfilled.Store(true)
		return nil
	})
	if err := s.Wait(small); err != nil {
		t.Fatal(err)
	}
	if !backfilled.Load() {
		t.Error("small job should have backfilled")
	}
	if head.State() != Waiting {
		t.Errorf("head state %s, want still Waiting", head.State())
	}
	close(blockRunning)
	if err := s.Wait(long); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(head); err != nil {
		t.Fatal(err)
	}
}

func TestNoBackfillKeepsFIFO(t *testing.T) {
	s, _ := New(Config{TotalNodes: 4})
	block := make(chan struct{})
	s.Submit("long", 2, time.Hour, func() error { <-block; return nil })
	time.Sleep(5 * time.Millisecond)
	s.Submit("head", 4, time.Hour, func() error { return nil })
	var jumped atomic.Bool
	small, _ := s.Submit("small", 1, time.Millisecond, func() error {
		jumped.Store(true)
		return nil
	})
	time.Sleep(20 * time.Millisecond)
	if jumped.Load() {
		t.Error("small job must not jump without backfill")
	}
	if small.State() != Waiting {
		t.Errorf("small state %s", small.State())
	}
	close(block)
}

func TestCancelWaitingJob(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1})
	block := make(chan struct{})
	s.Submit("runner", 1, time.Hour, func() error { <-block; return nil })
	time.Sleep(5 * time.Millisecond)
	j, _ := s.Submit("victim", 1, time.Hour, func() error { return nil })
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if j.State() != Cancelled {
		t.Errorf("state %s", j.State())
	}
	if err := s.Cancel(j.ID); err == nil {
		t.Error("double cancel should fail")
	}
	close(block)
}

func TestCloseRefusesSubmission(t *testing.T) {
	s, _ := New(Config{TotalNodes: 1})
	s.Close()
	if _, err := s.Submit("late", 1, time.Second, func() error { return nil }); err == nil {
		t.Error("submission after close should fail")
	}
}

// TestExecutorAdapter checks the fixed-grant case the deleted batch.Executor
// served: with no monitor to size from, every solve becomes one reservation
// at the policy's Fixed walltime, the body runs and its error comes back.
func TestExecutorAdapter(t *testing.T) {
	s, _ := New(Config{TotalNodes: 2})
	e := &ForecastExecutor{System: s, JobName: "solve", Nodes: 1, Policy: WalltimePolicy{Fixed: time.Minute}}
	var ran bool
	if _, err := e.Execute("svc", 0, nil, func() error { ran = true; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("executor did not run the body")
	}
	boom := errors.New("bad solve")
	if _, err := e.Execute("svc", 0, nil, func() error { return boom }, nil); !errors.Is(err, boom) {
		t.Errorf("Execute error = %v", err)
	}
	if st := s.Stats(); st.Submitted != 2 || st.Reserved != 2*time.Minute {
		t.Errorf("stats %+v, want 2 reservations of the fixed minute", st)
	}
	if st := e.Stats(); st.FixedFallback != 2 || st.ForecastSized != 0 {
		t.Errorf("executor stats %+v, want 2 fixed grants", st)
	}
}

func TestManyJobsDrain(t *testing.T) {
	s, _ := New(Config{TotalNodes: 3, Backfill: true})
	var done atomic.Int32
	var jobs []*Job
	for i := 0; i < 30; i++ {
		j, err := s.Submit("batch", 1+i%3, time.Minute, func() error {
			done.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := s.Wait(j); err != nil {
			t.Fatal(err)
		}
	}
	if done.Load() != 30 {
		t.Errorf("%d jobs ran, want 30", done.Load())
	}
	st := s.Stats()
	if st.Completed != 30 || st.FreeNodes != 3 || st.Running != 0 || st.Waiting != 0 {
		t.Errorf("final stats %+v", st)
	}
}
