package nbody

import (
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/grafic"
	"repro/internal/particles"
)

func newSolver(t *testing.T, ng int) *Solver {
	t.Helper()
	s, err := New(Params{Ng: ng, Box: 100, Cosmo: cosmo.WMAP3()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	c := cosmo.WMAP3()
	bad := []Params{
		{Ng: 12, Box: 100, Cosmo: c},
		{Ng: 16, Box: 0, Cosmo: c},
		{Ng: 16, Box: 100, Cosmo: nil},
		{Ng: 16, Box: 100, Cosmo: &cosmo.Params{}},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestMomentumConversionRoundTrip(t *testing.T) {
	for _, v := range []float64{-300, 0, 42.5, 1000} {
		p := MomentumFromVel(v, 0.5, 100)
		if got := VelFromMomentum(p, 0.5, 100); math.Abs(got-v) > 1e-12 {
			t.Errorf("round trip %g -> %g", v, got)
		}
	}
}

func TestDensityMassConservation(t *testing.T) {
	s := newSolver(t, 8)
	parts := particles.Set{
		{Pos: [3]float64{0.1, 0.2, 0.3}, Mass: 3, ID: 1},
		{Pos: [3]float64{0.9, 0.95, 0.01}, Mass: 5, ID: 2}, // straddles the wrap
	}
	delta := s.Density(parts)
	// Sum of (1+delta)*meanMass over cells = total mass.
	var sum float64
	for _, d := range delta {
		sum += d + 1
	}
	mean := 8.0 / float64(8*8*8)
	if got := sum * mean; math.Abs(got-8) > 1e-9 {
		t.Errorf("deposited mass %g, want 8", got)
	}
}

func TestDensityUniformLattice(t *testing.T) {
	// Particles exactly at every cell centre give delta == 0 everywhere.
	const n = 8
	s := newSolver(t, n)
	var parts particles.Set
	id := int64(0)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				parts = append(parts, particles.Particle{
					Pos:  [3]float64{(float64(ix) + 0.5) / n, (float64(iy) + 0.5) / n, (float64(iz) + 0.5) / n},
					Mass: 1, ID: id,
				})
				id++
			}
		}
	}
	delta := s.Density(parts)
	for i, d := range delta {
		if math.Abs(d) > 1e-9 {
			t.Fatalf("delta[%d] = %g, want 0 on a uniform lattice", i, d)
		}
	}
}

func TestDensityEmptySet(t *testing.T) {
	s := newSolver(t, 8)
	delta := s.Density(nil)
	for _, d := range delta {
		if d != -1 {
			t.Fatal("empty set should give delta = -1 everywhere")
		}
	}
}

func TestPotentialSingleMode(t *testing.T) {
	// For delta = cos(2πx), the discrete solve gives
	// phi = -coef/k_eff² · cos(2πx); check the ratio at every cell.
	const n = 16
	s := newSolver(t, n)
	delta := make([]float64, n*n*n)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				delta[(iz*n+iy)*n+ix] = math.Cos(2 * math.Pi * float64(ix) / n)
			}
		}
	}
	a := 0.5
	if err := s.Potential(delta, a); err != nil {
		t.Fatal(err)
	}
	coef := 1.5 * s.p.Cosmo.OmegaM / a
	keff := 2 * float64(n) * math.Sin(math.Pi/float64(n))
	want := -coef / (keff * keff)
	for ix := 0; ix < n; ix++ {
		got := real(s.phi.Data[ix])
		expect := want * math.Cos(2*math.Pi*float64(ix)/n)
		if math.Abs(got-expect) > 1e-9 {
			t.Fatalf("phi[%d] = %g, want %g", ix, got, expect)
		}
	}
}

func TestPotentialArgValidation(t *testing.T) {
	s := newSolver(t, 8)
	if err := s.Potential(make([]float64, 10), 0.5); err == nil {
		t.Error("expected error for wrong delta size")
	}
	if err := s.Potential(make([]float64, 512), 0); err == nil {
		t.Error("expected error for a=0")
	}
}

func TestAccelPointsTowardMass(t *testing.T) {
	// A single heavy particle at the centre: accelerations at nearby test
	// points must point toward it.
	const n = 16
	s := newSolver(t, n)
	parts := particles.Set{{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1000, ID: 1}}
	if err := s.Solve(s.Density(parts), 0.5); err != nil {
		t.Fatal(err)
	}
	probe := [3]float64{0.5 + 4.0/n, 0.5, 0.5}
	g := s.AccelAt(probe)
	if g[0] >= 0 {
		t.Errorf("acceleration x = %g at +x probe, want negative (toward mass)", g[0])
	}
	if math.Abs(g[1]) > math.Abs(g[0])*0.05 || math.Abs(g[2]) > math.Abs(g[0])*0.05 {
		t.Errorf("transverse acceleration too large: %v", g)
	}
	// Symmetry: the mirrored probe sees the mirrored force.
	g2 := s.AccelAt([3]float64{0.5 - 4.0/n, 0.5, 0.5})
	if math.Abs(g2[0]+g[0]) > 1e-9*math.Abs(g[0]) {
		t.Errorf("force not symmetric: %g vs %g", g2[0], g[0])
	}
}

func TestStepMomentumConservation(t *testing.T) {
	// Two equal masses attract symmetrically; net momentum stays ~0 and
	// they approach one another.
	const n = 16
	s := newSolver(t, n)
	parts := particles.Set{
		{Pos: [3]float64{0.4, 0.5, 0.5}, Mass: 500, ID: 1},
		{Pos: [3]float64{0.6, 0.5, 0.5}, Mass: 500, ID: 2},
	}
	sep0 := math.Abs(parts[1].Pos[0] - parts[0].Pos[0])
	a := 0.3
	for i := 0; i < 5; i++ {
		if err := s.Step(parts, a, 0.02); err != nil {
			t.Fatal(err)
		}
		a += 0.02
	}
	sep1 := math.Abs(parts[1].Pos[0] - parts[0].Pos[0])
	if sep1 >= sep0 {
		t.Errorf("particles did not approach: %g -> %g", sep0, sep1)
	}
	netVx := parts[0].Vel[0]*parts[0].Mass + parts[1].Vel[0]*parts[1].Mass
	scale := math.Abs(parts[0].Vel[0] * parts[0].Mass)
	if scale > 0 && math.Abs(netVx) > 1e-6*scale {
		t.Errorf("net momentum %g, want ~0 (scale %g)", netVx, scale)
	}
	// Symmetry of the pair is preserved.
	mid := (parts[0].Pos[0] + parts[1].Pos[0]) / 2
	if math.Abs(mid-0.5) > 1e-9 {
		t.Errorf("pair midpoint drifted to %g", mid)
	}
}

func TestLinearGrowth(t *testing.T) {
	// The headline physics test: evolve Zel'dovich ICs and compare the
	// growth of density fluctuations against linear theory.
	c := cosmo.WMAP3()
	gen, err := grafic.New(c, 99)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	a0, a1 := 0.1, 0.25 // stay linear
	ics, err := gen.SingleLevel(n, 200, a0)
	if err != nil {
		t.Fatal(err)
	}
	// Standard PM practice: force mesh at twice the particle grid to limit
	// CIC/finite-difference force softening near the particle Nyquist.
	s, err := New(Params{Ng: 2 * n, Box: 200, Cosmo: c})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := New(Params{Ng: n, Box: 200, Cosmo: c})
	if err != nil {
		t.Fatal(err)
	}
	rms0 := RMSDelta(meas.Density(ics.Parts))
	if err := s.Run(ics.Parts, a0, a1, 15, nil); err != nil {
		t.Fatal(err)
	}
	rms1 := RMSDelta(meas.Density(ics.Parts))
	want := c.GrowthFactor(a1) / c.GrowthFactor(a0)
	got := rms1 / rms0
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("fluctuation growth %g, linear theory %g (>10%% off)", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	s := newSolver(t, 8)
	parts := particles.Set{{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1, ID: 1}}
	if err := s.Run(parts, 0.5, 0.4, 5, nil); err == nil {
		t.Error("expected error for a1 < a0")
	}
	if err := s.Run(parts, 0.1, 0.5, 0, nil); err == nil {
		t.Error("expected error for 0 steps")
	}
	if err := s.Step(parts, 0.5, -0.1); err == nil {
		t.Error("expected error for negative da")
	}
}

func TestRunCallback(t *testing.T) {
	s := newSolver(t, 8)
	parts := particles.Set{{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1, ID: 1}}
	var steps []float64
	err := s.Run(parts, 0.2, 0.4, 4, func(step int, a float64) {
		steps = append(steps, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("%d callbacks, want 4", len(steps))
	}
	if math.Abs(steps[3]-0.4) > 1e-12 {
		t.Errorf("final a = %g, want 0.4", steps[3])
	}
}

func TestProjectDensity(t *testing.T) {
	const n = 8
	s := newSolver(t, n)
	parts := particles.Set{
		{Pos: [3]float64{0.5, 0.5, 0.1}, Mass: 1, ID: 1},
		{Pos: [3]float64{0.5, 0.5, 0.9}, Mass: 1, ID: 2},
	}
	m, err := s.ProjectDensity(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != n*n {
		t.Fatalf("map has %d cells, want %d", len(m), n*n)
	}
	var sum float64
	for _, v := range m {
		sum += v
	}
	// Mean normalised to 1 → sum = n².
	if math.Abs(sum-float64(n*n)) > 1e-9 {
		t.Errorf("map sum %g, want %d", sum, n*n)
	}
	if _, err := s.ProjectDensity(parts, 3); err == nil {
		t.Error("expected error for bad axis")
	}
}

func TestCICInterpConstantField(t *testing.T) {
	const n = 8
	grid := make([]float64, n*n*n)
	for i := range grid {
		grid[i] = 7.25
	}
	for _, pos := range [][3]float64{{0.1, 0.2, 0.3}, {0.99, 0.01, 0.5}, {0, 0, 0}} {
		if got := interpCIC(grid, n, pos); math.Abs(got-7.25) > 1e-12 {
			t.Errorf("interp at %v = %g, want 7.25", pos, got)
		}
	}
}

func TestDepositInterpAdjoint(t *testing.T) {
	// CIC deposit and interpolation use the same kernel: interpolating the
	// deposit of a single unit mass at its own location gives the kernel's
	// self-overlap, which must be ≤ 1 and positive.
	const n = 8
	grid := make([]float64, n*n*n)
	pos := [3]float64{0.37, 0.61, 0.83}
	depositCIC(grid, n, pos, 1)
	v := interpCIC(grid, n, pos)
	if v <= 0 || v > 1 {
		t.Errorf("self-overlap %g outside (0,1]", v)
	}
}

// Params returns the solver configuration.
func (s *Solver) Params() Params { return s.p }

// AccelAt returns the interpolated acceleration −∇φ at pos, valid after a
// Solve at the current epoch.
func (s *Solver) AccelAt(pos [3]float64) [3]float64 {
	var st cicStencil
	st.at(s.p.Ng, pos)
	return s.accelFrom(&st)
}

// RMSDelta returns the rms of an overdensity field; used as a cheap growth
// diagnostic in tests and examples.
func RMSDelta(delta []float64) float64 {
	var sum float64
	for _, v := range delta {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(delta)))
}
