package ramses

import "testing"

var benchPhase2 *Phase2Result

// BenchmarkPhase2Campaign is one zoom re-simulation exactly as the
// repository benchmark's zoom_campaign runs it: two nested levels centred on
// the box, the GALICS chain, results kept in memory.
func BenchmarkPhase2Campaign(b *testing.B) {
	cfg := campaignConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		benchPhase2, err = Phase2(cfg, [3]float64{0.5, 0.5, 0.5}, 2, "")
		if err != nil {
			b.Fatal(err)
		}
	}
}
