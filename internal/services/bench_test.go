package services

import (
	"os"
	"testing"
)

// BenchmarkSolveZoom2 is one ramsesZoom2 request as a SeD serves it at the
// campaign configuration: the namelist parsed into a fresh cosmology, the
// nested re-simulation with its snapshots and tarball written to disk, and
// the tarball set as the OUT argument. Each request's directory is removed
// outside the timer.
func BenchmarkSolveZoom2(b *testing.B) {
	p, err := NewZoom2Profile(campaignConfig(1), 8, 8, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	base := b.TempDir()
	solve := SolveZoom2(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solve(p); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(base); err != nil {
			b.Fatal(err)
		}
		if err := os.Mkdir(base, 0o755); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
