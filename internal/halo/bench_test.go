package halo

import (
	"math/rand"
	"testing"

	"repro/internal/particles"
)

var benchCatalog *Catalog

// BenchmarkFindHalos4096 is friends-of-friends over 4096 particles, three
// quarters scattered and one quarter in eight clumps, at the campaign's
// linking length.
func BenchmarkFindHalos4096(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var parts particles.Set
	for i := 0; i < 3072; i++ {
		parts = append(parts, particles.Particle{
			Pos:  [3]float64{rng.Float64(), rng.Float64(), rng.Float64()},
			Mass: 1, ID: int64(i),
		})
	}
	for c := 0; c < 8; c++ {
		centre := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		parts = append(parts, clump(rng, centre, 128, 0.004, int64(10000*(c+1)))...)
	}
	params := Params{LinkingLength: 0.25, MinParticles: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		benchCatalog, err = FindHalos(parts, 1, 100, params)
		if err != nil {
			b.Fatal(err)
		}
	}
}
