package nbody

import (
	"testing"

	"repro/internal/cosmo"
	"repro/internal/grafic"
)

// BenchmarkStep16 is one kick-drift-kick step of 16³ particles on a 16³
// mesh. Consecutive steps continue from each other as inside Run: one field
// solve, one stencil and one force gather per particle.
func BenchmarkStep16(b *testing.B) {
	c := cosmo.WMAP3()
	gen, err := grafic.New(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	ics, err := gen.SingleLevel(16, 100, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Params{Ng: 16, Box: 100, Cosmo: c})
	if err != nil {
		b.Fatal(err)
	}
	const da = 1e-4
	a := 0.1
	if err := s.Step(ics.Parts, a, da); err != nil { // first step pays the opening solve
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a += da
		if err := s.step(ics.Parts, a, da, true); err != nil {
			b.Fatal(err)
		}
	}
}
