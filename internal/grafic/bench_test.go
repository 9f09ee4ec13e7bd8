package grafic

import (
	"testing"

	"repro/internal/cosmo"
	"repro/internal/fft"
)

var benchDelta *fft.Grid3

// BenchmarkDeltaField16 is one 16³ overdensity realisation at the campaign's
// box and starting epoch: noise, forward transform, per-mode filter, inverse.
func BenchmarkDeltaField16(b *testing.B) {
	g, err := New(cosmo.WMAP3(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDelta, err = g.DeltaField(16, 100, 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
}
