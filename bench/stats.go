package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of the samples by
// the nearest-rank rule, so the value is always one that was measured. An
// empty slice yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample (mean of the two middle ones when even).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// block is one measured slice of a run. A run reports the median over its
// blocks of their median latency and rate, so that a disturbance of one or
// two blocks (another tenant of the machine) does not move them.
type block struct {
	// P50 and P90 are latency percentiles of the block's samples, ms. The
	// tail is p90, not p95: a block of a live workload holds 100 to 250
	// samples, so ten or more lie beyond p90 and only five beyond p95.
	P50, P90 float64
	Rate     float64 // operations per second in the block
	N        int     // latency samples
}

// newBlock summarises one block's latency samples and throughput.
func newBlock(latMS []float64, rate float64) block {
	return block{P50: percentile(latMS, 50), P90: percentile(latMS, 90), Rate: rate, N: len(latMS)}
}

// chunkBlocks cuts a sequence of back-to-back operation times (ms) into
// nblocks consecutive blocks of equal operation count; a block's rate is
// its count over the time its operations took. With fewer than 2·nblocks
// samples the whole sequence is one block.
func chunkBlocks(latMS []float64, nblocks int) []block {
	n := len(latMS)
	if n == 0 {
		return nil
	}
	if n < 2*nblocks {
		nblocks = 1
	}
	out := make([]block, 0, nblocks)
	for b := 0; b < nblocks; b++ {
		part := latMS[b*n/nblocks : (b+1)*n/nblocks]
		total := 0.0
		for _, v := range part {
			total += v
		}
		out = append(out, newBlock(part, float64(len(part))/(total/1e3)))
	}
	return out
}

// overBlocks returns the median, minimum and maximum over blocks of one
// field.
func overBlocks(blocks []block, field func(block) float64) (med, lo, hi float64) {
	if len(blocks) == 0 {
		return 0, 0, 0
	}
	vals := make([]float64, len(blocks))
	for i, b := range blocks {
		vals[i] = field(b)
	}
	sort.Float64s(vals)
	return median(vals), vals[0], vals[len(vals)-1]
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
