package main

import (
	"math/rand"
	"sync"
	"time"
)

// phaseResult is what one load phase measured. Lat holds the latency of
// every successful operation; a failed operation has no latency and is
// counted in Failed (it misses any limit).
type phaseResult struct {
	Lat       []time.Duration
	Late      []time.Duration // open loop only: how late each send started
	Elapsed   time.Duration
	Attempted int
	Failed    int
}

func (p *phaseResult) merge(q phaseResult) {
	p.Lat = append(p.Lat, q.Lat...)
	p.Late = append(p.Late, q.Late...)
	p.Attempted += q.Attempted
	p.Failed += q.Failed
}

// closedLoop runs callers goroutines that each issue their next operation
// only after the previous one returned, until d has elapsed: the load of
// synchronous GridRPC callers. A slow system receives less load.
func closedLoop(callers int, d time.Duration, op func() error) phaseResult {
	parts := make([]phaseResult, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &parts[w]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := op()
				done := time.Now()
				res.Attempted++
				if err != nil {
					res.Failed++
					continue
				}
				res.Lat = append(res.Lat, done.Sub(t0))
			}
		}(w)
	}
	wg.Wait()
	var out phaseResult
	for _, p := range parts {
		out.merge(p)
	}
	out.Elapsed = time.Since(start)
	return out
}

// poissonSchedule draws arrival offsets of a Poisson process of the given
// rate (per second) over d: independent users, each unaware of the others.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// openLoop starts operation i at due[i] whether or not earlier ones have
// returned, so a stall lets the queue grow. Each operation is timed from the
// moment it was due, not from the moment it was sent: the wait a stall
// imposes on later requests is part of their latency. Late records how far
// behind schedule the generator itself started each send.
func openLoop(due []time.Duration, op func() error) phaseResult {
	n := len(due)
	lat := make([]time.Duration, n)
	failed := make([]bool, n)
	late := make([]time.Duration, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i, at := range due {
		dueAt := start.Add(at)
		time.Sleep(time.Until(dueAt))
		late[i] = time.Since(dueAt)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := op()
			done := time.Now()
			failed[i] = err != nil
			lat[i] = done.Sub(dueAt)
		}(i)
	}
	wg.Wait()
	out := phaseResult{Late: late, Attempted: n, Elapsed: time.Since(start)}
	for i := range due {
		if failed[i] {
			out.Failed++
			continue
		}
		out.Lat = append(out.Lat, lat[i])
	}
	return out
}

// rate is the phase's completed operations per second.
func (p phaseResult) rate() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(len(p.Lat)) / p.Elapsed.Seconds()
}
