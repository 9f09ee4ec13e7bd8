package fft

import (
	"math/rand"
	"testing"
)

// BenchmarkForward3_32 is one forward transform of the 32³ mesh a zoom level
// solves on.
func BenchmarkForward3_32(b *testing.B) {
	g, err := NewGrid3(32)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	src := make([]complex128, len(g.Data))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(g.Data, src)
		if err := Forward3(g); err != nil {
			b.Fatal(err)
		}
	}
}
