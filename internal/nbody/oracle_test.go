package nbody

import (
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/grafic"
	"repro/internal/particles"
)

// overdensity is the deposit as it stood before the solver kept stencils:
// one fresh stencil per particle, the masses summed in particle order.
func overdensity(rho []float64, n int, parts particles.Set) {
	clear(rho)
	var totalMass float64
	for i := range parts {
		totalMass += parts[i].Mass
		depositCIC(rho, n, parts[i].Pos, parts[i].Mass)
	}
	normalise(rho, totalMass)
}

// referenceStep is the leapfrog step as it stood before the solver kept
// stencils and accelerations between kicks: every kick computes each
// particle's stencil afresh and gathers from it. The solver's Run must
// reproduce it to the bit.
func referenceStep(s *Solver, parts particles.Set, a, da float64) error {
	n := s.p.Ng
	if s.accA != a {
		overdensity(s.rho, n, parts)
		if err := s.Solve(s.rho, a); err != nil {
			return err
		}
	}
	box := s.p.Box
	halfKick := 0.5 * da * s.fKick(a)
	drift := da * s.fDrift(a+da/2)
	for i := range parts {
		p := &parts[i]
		g := s.AccelAt(p.Pos)
		for d := 0; d < 3; d++ {
			mom := MomentumFromVel(p.Vel[d], a, box) + g[d]*halfKick
			p.Vel[d] = VelFromMomentum(mom, a, box)
			p.Pos[d] = particles.Wrap(p.Pos[d] + mom*drift)
		}
	}
	aNew := a + da
	overdensity(s.rho, n, parts)
	if err := s.Solve(s.rho, aNew); err != nil {
		return err
	}
	halfKick = 0.5 * da * s.fKick(aNew)
	for i := range parts {
		p := &parts[i]
		g := s.AccelAt(p.Pos)
		for d := 0; d < 3; d++ {
			mom := MomentumFromVel(p.Vel[d], a, box) + g[d]*halfKick
			p.Vel[d] = VelFromMomentum(mom, aNew, box)
		}
	}
	return nil
}

// referenceRun is Run over referenceStep.
func referenceRun(s *Solver, parts particles.Set, a0, a1 float64, nsteps int) error {
	da := (a1 - a0) / float64(nsteps)
	a := a0
	for step := 0; step < nsteps; step++ {
		if err := referenceStep(s, parts, a, da); err != nil {
			return err
		}
		a += da
	}
	return nil
}

// sameBits fails unless both sets hold the same positions and velocities to
// the bit, particle by particle.
func sameBits(t *testing.T, what string, got, want particles.Set) {
	t.Helper()
	for i := range want {
		for d := 0; d < 3; d++ {
			if math.Float64bits(got[i].Pos[d]) != math.Float64bits(want[i].Pos[d]) ||
				math.Float64bits(got[i].Vel[d]) != math.Float64bits(want[i].Vel[d]) {
				t.Fatalf("%s: particle %d axis %d is pos %v vel %v, reference pos %v vel %v",
					what, i, d, got[i].Pos[d], got[i].Vel[d], want[i].Pos[d], want[i].Vel[d])
			}
		}
	}
}

func TestRunMatchesReferenceStepsBitForBit(t *testing.T) {
	// Shaped like ramses.RunFromICs: one solver, two Run calls back to back
	// on the same set, the second starting on the field the first cached.
	c := cosmo.WMAP3()
	for _, tc := range []struct {
		npart, ng int
		seed      int64
	}{{8, 8, 3}, {16, 16, 1}, {8, 32, 5}} {
		gen, err := grafic.New(c, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		ics, err := gen.SingleLevel(tc.npart, 100, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Ng: tc.ng, Box: 100, Cosmo: c}
		got, want := ics.Parts.Clone(), ics.Parts.Clone()
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		want0 := make([]float64, tc.ng*tc.ng*tc.ng)
		overdensity(want0, tc.ng, ics.Parts)
		for i, v := range s.Density(ics.Parts) {
			if math.Float64bits(v) != math.Float64bits(want0[i]) {
				t.Fatalf("Density cell %d = %v, reference %v", i, v, want0[i])
			}
		}
		for _, span := range [][2]float64{{0.1, 0.5}, {0.5, 1.0}} {
			if err := s.Run(got, span[0], span[1], 8, nil); err != nil {
				t.Fatal(err)
			}
			if err := referenceRun(ref, want, span[0], span[1], 8); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Run", got, want)
		}
		// A plain Step after the runs starts cold, on the cached field.
		if err := s.Step(got, 1.0, 0.05); err != nil {
			t.Fatal(err)
		}
		if err := referenceStep(ref, want, 1.0, 0.05); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "Step", got, want)
	}
}
