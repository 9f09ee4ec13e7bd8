package nbody

import (
	"math"
	"math/rand"
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
		if err := s.solve(s.rho, a); err != nil {
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
	if err := s.solve(s.rho, aNew); err != nil {
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

// wrapFloor is particles.Wrap as it stood before its in-range fast path:
// the coordinate less its floor.
func wrapFloor(x float64) float64 {
	x -= math.Floor(x)
	if x >= 1 {
		x = 0
	}
	return x
}

// atFloor is cicStencil.at as it stood before it truncated: wrap by floor,
// then the floor of the mesh coordinate.
func (st *cicStencil) atFloor(n int, pos [3]float64) {
	var lo, hi [3]int
	for d := 0; d < 3; d++ {
		u := wrapFloor(pos[d])*float64(n) - 0.5
		base := math.Floor(u)
		f := u - base
		st.w[d] = [2]float64{1 - f, f}
		lo[d] = wrapIndex(int(base), n)
		hi[d] = wrapIndex(int(base)+1, n)
	}
	for c := range st.cell {
		ix, iy, iz := lo[0], lo[1], lo[2]
		if c&1 != 0 {
			ix = hi[0]
		}
		if c&2 != 0 {
			iy = hi[1]
		}
		if c&4 != 0 {
			iz = hi[2]
		}
		st.cell[c] = int32((iz*n+iy)*n + ix)
	}
}

// edgeCoordinates are the coordinates where a floor-free wrap or stencil
// could round differently from the floors: signed zeros, one ulp either
// side of 0 and 1, exact cell edges and centres of the meshes and one ulp
// around them, negatives, large magnitudes and random sets.
func edgeCoordinates(meshes []int) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, -2,
		math.Nextafter(1, 0), math.Nextafter(1, 2), math.Nextafter(0, 1), math.Nextafter(0, -1),
		math.Nextafter(-1, 0), math.Nextafter(-1, -2), -1e-18, -0.25, -0.5, -1.75, 0.5, 1.5, 3,
		1e15, -1e15, 1<<52 + 0.5, -(1<<52 + 0.5), 1 << 53, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	for _, n := range meshes {
		for k := -1; k <= n+1; k++ {
			for _, x := range []float64{float64(k) / float64(n), (float64(k) + 0.5) / float64(n)} {
				xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		xs = append(xs, rng.Float64(), 6*rng.Float64()-3, math.Ldexp(rng.Float64(), rng.Intn(120)-60))
	}
	return xs
}

func TestWrapAndStencilMatchFloorBitForBit(t *testing.T) {
	meshes := []int{1, 2, 8, 16, 64, maxNg}
	xs := edgeCoordinates(meshes)
	for _, x := range xs {
		if got, want := particles.Wrap(x), wrapFloor(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Wrap(%v) = %v, floor form %v", x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for _, n := range meshes {
		// Deposits are checked on the meshes up to 64³ only.
		var got, want []float64
		if n <= 64 {
			got, want = make([]float64, n*n*n), make([]float64, n*n*n)
		}
		for i, x := range xs {
			pos := [3]float64{x, xs[rng.Intn(len(xs))], xs[(i*7919)%len(xs)]}
			var st, ref cicStencil
			st.at(n, pos)
			ref.atFloor(n, pos)
			for d := range st.w {
				for j := range st.w[d] {
					if math.Float64bits(st.w[d][j]) != math.Float64bits(ref.w[d][j]) {
						t.Fatalf("n=%d pos %v: weight [%d][%d] %v, floor form %v", n, pos, d, j, st.w[d][j], ref.w[d][j])
					}
				}
			}
			if st.cell != ref.cell {
				t.Fatalf("n=%d pos %v: cells %v, floor form %v", n, pos, st.cell, ref.cell)
			}
			if got == nil || i%16 != 0 {
				continue
			}
			// The deposit forms each corner's m·wx·wy·wz left to right, as
			// the one-expression form does, in the same corner order.
			m := rng.Float64()
			st.deposit(got, m)
			for c, cell := range ref.cell {
				want[cell] += m * ref.w[0][c&1] * ref.w[1][c>>1&1] * ref.w[2][c>>2]
			}
		}
		for cell := range got {
			if math.Float64bits(got[cell]) != math.Float64bits(want[cell]) {
				t.Fatalf("n=%d cell %d after the deposits: %v, one-expression form %v", n, cell, got[cell], want[cell])
			}
		}
	}
}
