package scheduler

import (
	"fmt"
	"testing"
)

// benchEstimates builds a mixed candidate list: half the servers carry a
// trusted forecast extension, half only static fields — the shape an MA
// ranks on a partially trained platform.
func benchEstimates(n int) []Estimate {
	out := make([]Estimate, n)
	for i := range out {
		out[i] = Estimate{
			ServerID:    fmt.Sprintf("SeD-%03d", i),
			Service:     "zoom",
			Capacity:    1,
			QueueLen:    i % 7,
			Running:     i % 2,
			PowerGFlops: float64(20 + i%40),
		}
		if i%2 == 0 {
			out[i].HasForecast = true
			out[i].ForecastSamples = 32
			out[i].EWMASolveSeconds = float64(300 + 10*i)
			out[i].ForecastBaseS = 5
			out[i].ForecastPerGFlopS = 1 / float64(20+i%40)
			out[i].ForecastConfidence = 1
			out[i].PendingWorkSeconds = float64(600 * (i % 7))
		}
	}
	return out
}

func benchRank(b *testing.B, p Policy, n int) {
	ests := benchEstimates(n)
	req := Request{Service: "zoom", WorkGFlops: 20000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Rank(req, ests); len(got) != n {
			b.Fatalf("rank returned %d of %d", len(got), n)
		}
	}
}

func BenchmarkForecastAwareRank64(b *testing.B)   { benchRank(b, NewForecastAware(), 64) }
func BenchmarkContentionAwareRank64(b *testing.B) { benchRank(b, NewContentionAware(), 64) }
func BenchmarkPowerAwareRank64(b *testing.B)      { benchRank(b, NewPowerAware(), 64) }

// Eleven candidates is the paper's platform: what the MA ranks on every call.
func BenchmarkForecastAwareRank11(b *testing.B)   { benchRank(b, NewForecastAware(), 11) }
func BenchmarkContentionAwareRank11(b *testing.B) { benchRank(b, NewContentionAware(), 11) }
func BenchmarkPowerAwareRank11(b *testing.B)      { benchRank(b, NewPowerAware(), 11) }
