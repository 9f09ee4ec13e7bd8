// Package nbody implements the gravitational N-body solver at the heart of
// the RAMSES application: a particle-mesh (PM) scheme with cloud-in-cell
// mass assignment, an FFT Poisson solve on the periodic mesh, and a
// kick-drift-kick leapfrog integrator in comoving variables with the
// expansion factor as time variable.
//
// Code units follow the standard PM convention (Klypin & Holtzman 1997):
// positions x live in the unit box, the time variable is the expansion
// factor a, momenta are p = a²·dx/dt̃ with t̃ = t·H0, and the comoving
// potential obeys ∇²φ = (3/2)(ΩM/a)·δ. Peculiar velocities in km/s convert
// as v = 100·L·p/a for a box of L Mpc/h (the h cancels).
package nbody

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/particles"
)

// Params configures a PM solver.
type Params struct {
	Ng    int           // mesh points per axis (power of two)
	Box   float64       // comoving box size, Mpc/h
	Cosmo *cosmo.Params // background cosmology
}

// maxNg is the largest mesh whose cell indices fit a stencil's int32.
const maxNg = 1024

// Solver is a periodic particle-mesh gravity solver. It is not safe for
// concurrent use.
type Solver struct {
	p Params

	phi  *fft.Grid3   // potential work grid
	rho  []float64    // density work grid of Step, refilled before each solve
	sin2 []float64    // (2·Ng·sin(π·i/Ng))² per mesh index, the Green's function terms
	acc  [3][]float64 // cell-centred acceleration components (−∇φ)
	accA float64      // expansion factor the cached acc grids were built at

	// Per-particle state of the last deposit and closing kick, in the
	// order of the set they were made for: each particle's stencil at its
	// deposited position, and the acceleration gathered there from the
	// field at accA. Run's next opening kick reads the same field at the
	// same positions, so it takes g instead of gathering again.
	st []cicStencil
	g  [][3]float64
}

// New validates params and returns a ready Solver.
func New(p Params) (*Solver, error) {
	if !fft.IsPow2(p.Ng) {
		return nil, fmt.Errorf("nbody: mesh size %d is not a power of two", p.Ng)
	}
	if p.Ng > maxNg {
		return nil, fmt.Errorf("nbody: mesh size %d exceeds %d", p.Ng, maxNg)
	}
	if p.Box <= 0 {
		return nil, fmt.Errorf("nbody: box size must be positive, got %g", p.Box)
	}
	if p.Cosmo == nil {
		return nil, fmt.Errorf("nbody: cosmology must be set")
	}
	if err := p.Cosmo.Validate(); err != nil {
		return nil, err
	}
	phi, err := fft.NewGrid3(p.Ng)
	if err != nil {
		return nil, err
	}
	s := &Solver{p: p, phi: phi, accA: -1}
	n3 := p.Ng * p.Ng * p.Ng
	s.rho = make([]float64, n3)
	for d := 0; d < 3; d++ {
		s.acc[d] = make([]float64, n3)
	}
	fn := float64(p.Ng)
	s.sin2 = make([]float64, p.Ng)
	for i := range s.sin2 {
		si := 2 * fn * math.Sin(math.Pi*float64(i)/fn)
		s.sin2[i] = si * si
	}
	return s, nil
}

// MomentumFromVel converts a peculiar velocity in km/s to a code momentum at
// expansion factor a in a box of boxSize Mpc/h.
func MomentumFromVel(v, a, boxSize float64) float64 { return a * v / (100 * boxSize) }

// VelFromMomentum converts a code momentum back to a peculiar velocity in
// km/s.
func VelFromMomentum(p, a, boxSize float64) float64 { return 100 * boxSize * p / a }

// Density deposits the particle masses onto the mesh with cloud-in-cell
// weights and returns the overdensity field δ = ρ/ρ̄ − 1 as a freshly
// allocated flat array in (iz*Ng+iy)*Ng+ix order. An empty set yields δ = −1
// everywhere.
func (s *Solver) Density(parts particles.Set) []float64 {
	n := s.p.Ng
	rho := make([]float64, n*n*n)
	normalise(rho, s.depositStencils(rho, parts))
	return rho
}

// normalise turns rho, the deposited mass on an n³ mesh, into the
// overdensity ρ/ρ̄ − 1 in place.
func normalise(rho []float64, totalMass float64) {
	mean := totalMass / float64(len(rho))
	if mean == 0 {
		for i := range rho {
			rho[i] = -1
		}
		return
	}
	for i := range rho {
		rho[i] = rho[i]/mean - 1
	}
}

// cicStencil is the cloud-in-cell footprint of one position on an n³
// periodic mesh: the eight cells it touches and the per-axis weights. Corner
// c = (dz*2+dy)*2+dx has weight w[0][dx]·w[1][dy]·w[2][dz]; deposit and
// accelFrom multiply the three factors onto the value one by one, in that
// order, so sharing a stencil between grids changes no rounding.
type cicStencil struct {
	cell [8]int32
	w    [3][2]float64
}

// at sets st to the stencil of pos (unit box) on an n³ mesh.
func (st *cicStencil) at(n int, pos [3]float64) {
	// off[d] holds the offsets of the two cells along axis d in the flat
	// mesh, whose index (iz*n+iy)*n+ix is iz·n² + iy·n + ix.
	var off [3][2]int
	stride := 1
	for d := 0; d < 3; d++ {
		// u is in [−0.5, n−0.5), so its floor, the truncation corrected by
		// one where that rounded up, is in [−1, n−1]; u is never −0.
		u := particles.Wrap(pos[d])*float64(n) - 0.5
		lo := int(u)
		if float64(lo) > u {
			lo--
		}
		f := u - float64(lo)
		st.w[d] = [2]float64{1 - f, f}
		hi := lo + 1
		if lo < 0 {
			lo += n
		}
		if hi == n {
			hi = 0
		}
		off[d] = [2]int{lo * stride, hi * stride}
		stride *= n
	}
	x0, x1 := off[0][0], off[0][1]
	y0, y1 := off[1][0], off[1][1]
	z0, z1 := off[2][0], off[2][1]
	st.cell = [8]int32{
		int32(z0 + y0 + x0), int32(z0 + y0 + x1), int32(z0 + y1 + x0), int32(z0 + y1 + x1),
		int32(z1 + y0 + x0), int32(z1 + y0 + x1), int32(z1 + y1 + x0), int32(z1 + y1 + x1),
	}
}

// wrapIndex maps a mesh index into [0, n) periodically. Stencil indices are
// in range except at the box faces, so the division is the rare path.
func wrapIndex(i, n int) int {
	if uint(i) < uint(n) {
		return i
	}
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// deposit adds mass m to grid with the stencil's weights, corner by corner
// in cell order. Each corner's term m·w_x·w_y·w_z is associated left to
// right as written, with m·w_x formed once per x weight and (m·w_x)·w_y once
// per xy pair.
func (st *cicStencil) deposit(grid []float64, m float64) {
	wy, wz := &st.w[1], &st.w[2]
	mx0, mx1 := m*st.w[0][0], m*st.w[0][1]
	m00, m10, m01, m11 := mx0*wy[0], mx1*wy[0], mx0*wy[1], mx1*wy[1]
	c := &st.cell
	grid[c[0]] += m00 * wz[0]
	grid[c[1]] += m10 * wz[0]
	grid[c[2]] += m01 * wz[0]
	grid[c[3]] += m11 * wz[0]
	grid[c[4]] += m00 * wz[1]
	grid[c[5]] += m10 * wz[1]
	grid[c[6]] += m01 * wz[1]
	grid[c[7]] += m11 * wz[1]
}

// depositCIC adds mass m at position pos (unit box) to grid with CIC weights.
func depositCIC(grid []float64, n int, pos [3]float64, m float64) {
	var st cicStencil
	st.at(n, pos)
	st.deposit(grid, m)
}

// depositStencils adds the masses of parts to grid with CIC weights, in
// particle order, keeps each particle's stencil in s.st for the closing kick
// and returns the total mass.
func (s *Solver) depositStencils(grid []float64, parts particles.Set) float64 {
	n := s.p.Ng
	s.st = slices.Grow(s.st[:0], len(parts))[:len(parts)]
	var mass float64
	for i := range parts {
		st := &s.st[i]
		st.at(n, parts[i].Pos)
		mass += parts[i].Mass
		st.deposit(grid, parts[i].Mass)
	}
	return mass
}

// Potential solves ∇²φ = (3/2)(ΩM/a)·δ on the periodic mesh using the
// discrete 7-point Green's function and leaves φ in the solver's work grid.
func (s *Solver) Potential(delta []float64, a float64) error {
	n := s.p.Ng
	if len(delta) != n*n*n {
		return fmt.Errorf("nbody: delta has %d cells, want %d", len(delta), n*n*n)
	}
	if a <= 0 {
		return fmt.Errorf("nbody: expansion factor must be positive, got %g", a)
	}
	for i, v := range delta {
		s.phi.Data[i] = complex(v, 0)
	}
	if err := fft.Forward3(s.phi); err != nil {
		return err
	}
	coef := 1.5 * s.p.Cosmo.OmegaM / a
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				k2 := s.sin2[ix] + s.sin2[iy] + s.sin2[iz]
				idx := (iz*n+iy)*n + ix
				if k2 == 0 {
					s.phi.Data[idx] = 0 // mean of φ is a free gauge
					continue
				}
				s.phi.Data[idx] *= complex(-coef/k2, 0)
			}
		}
	}
	return fft.Inverse3(s.phi)
}

// buildAccel differentiates the potential with central differences to the
// cell-centred acceleration −∇φ (box units) and caches the result for a.
func (s *Solver) buildAccel(a float64) {
	n := s.p.Ng
	scale := float64(n) / 2 // central difference over 2Δx with Δx = 1/n
	at := func(ix, iy, iz int) float64 { return real(s.phi.Data[(iz*n+iy)*n+ix]) }
	for iz := 0; iz < n; iz++ {
		zm, zp := wrapIndex(iz-1, n), wrapIndex(iz+1, n)
		for iy := 0; iy < n; iy++ {
			ym, yp := wrapIndex(iy-1, n), wrapIndex(iy+1, n)
			for ix := 0; ix < n; ix++ {
				idx := (iz*n+iy)*n + ix
				s.acc[0][idx] = -(at(wrapIndex(ix+1, n), iy, iz) - at(wrapIndex(ix-1, n), iy, iz)) * scale
				s.acc[1][idx] = -(at(ix, yp, iz) - at(ix, ym, iz)) * scale
				s.acc[2][idx] = -(at(ix, iy, zp) - at(ix, iy, zm)) * scale
			}
		}
	}
	s.accA = a
}

// solve computes the potential and acceleration grids for the given particle
// distribution at expansion factor a.
func (s *Solver) solve(delta []float64, a float64) error {
	if err := s.Potential(delta, a); err != nil {
		return err
	}
	s.buildAccel(a)
	return nil
}

// accelFrom gathers the three acceleration components at a stencil in one
// pass over its cells; each component sums its terms value·wx·wy·wz in the
// order of a single-grid CIC gather (cicStencil.gather in stencil_test.go).
func (s *Solver) accelFrom(st *cicStencil) (g [3]float64) {
	ax, ay, az := s.acc[0], s.acc[1], s.acc[2]
	corner := func(cell int32, wx, wy, wz float64) {
		g[0] += ax[cell] * wx * wy * wz
		g[1] += ay[cell] * wx * wy * wz
		g[2] += az[cell] * wx * wy * wz
	}
	x0, x1 := st.w[0][0], st.w[0][1]
	y0, y1 := st.w[1][0], st.w[1][1]
	z0, z1 := st.w[2][0], st.w[2][1]
	c := &st.cell
	corner(c[0], x0, y0, z0)
	corner(c[1], x1, y0, z0)
	corner(c[2], x0, y1, z0)
	corner(c[3], x1, y1, z0)
	corner(c[4], x0, y0, z1)
	corner(c[5], x1, y0, z1)
	corner(c[6], x0, y1, z1)
	corner(c[7], x1, y1, z1)
	return g
}

// locate sets s.st to the stencils of the particles' positions.
func (s *Solver) locate(parts particles.Set) {
	s.st = slices.Grow(s.st[:0], len(parts))[:len(parts)]
	for i := range parts {
		s.st[i].at(s.p.Ng, parts[i].Pos)
	}
}

// gatherAccel fills s.g with the acceleration at every particle's stencil in
// s.st: the opening kick of a step with no acceleration cached.
func (s *Solver) gatherAccel() {
	s.g = slices.Grow(s.g[:0], len(s.st))[:len(s.st)]
	for i := range s.st {
		s.g[i] = s.accelFrom(&s.st[i])
	}
}

// fKick is the kick coefficient dp/da = −∇φ · fKick(a).
func (s *Solver) fKick(a float64) float64 { return 1 / (a * s.p.Cosmo.E(a)) }

// fDrift is the drift coefficient dx/da = p · fDrift(a).
func (s *Solver) fDrift(a float64) float64 { return 1 / (a * a * a * s.p.Cosmo.E(a)) }

// kickDrift applies the first half kick with the accelerations in s.g and
// the full drift to parts, leaving velocities expressed at epoch a.
func (s *Solver) kickDrift(parts particles.Set, a, da float64) {
	box := s.p.Box
	halfKick := 0.5 * da * s.fKick(a)
	drift := da * s.fDrift(a+da/2)
	for i := range parts {
		p := &parts[i]
		g := &s.g[i]
		for d := 0; d < 3; d++ {
			mom := MomentumFromVel(p.Vel[d], a, box) + g[d]*halfKick
			p.Vel[d] = VelFromMomentum(mom, a, box) // stash as velocity at epoch a
			p.Pos[d] = particles.Wrap(p.Pos[d] + mom*drift)
		}
	}
}

// secondKick applies the closing half kick using the field solved at aNew,
// gathered through the stencils of the deposit that field was solved from,
// and re-expresses velocities at the new epoch. The accelerations stay in
// s.g for the next step's opening kick.
func (s *Solver) secondKick(parts particles.Set, a, aNew, da float64) {
	box := s.p.Box
	halfKick := 0.5 * da * s.fKick(aNew)
	s.g = slices.Grow(s.g[:0], len(parts))[:len(parts)]
	for i := range parts {
		p := &parts[i]
		g := s.accelFrom(&s.st[i])
		s.g[i] = g
		for d := 0; d < 3; d++ {
			mom := MomentumFromVel(p.Vel[d], a, box) + g[d]*halfKick
			p.Vel[d] = VelFromMomentum(mom, aNew, box)
		}
	}
}

// deposit overwrites s.rho with the overdensity of parts, keeping each
// particle's stencil.
func (s *Solver) deposit(parts particles.Set) {
	clear(s.rho)
	normalise(s.rho, s.depositStencils(s.rho, parts))
}

// Step advances the particle set by one kick-drift-kick leapfrog step from
// expansion factor a to a+da, mutating positions and velocities in place.
// The field is solved once at a (reusing the cached solve when the previous
// step ended here) and once at a+da.
func (s *Solver) Step(parts particles.Set, a, da float64) error {
	return s.step(parts, a, da, false)
}

// step is Step. With warm set, s.g already holds every particle's
// acceleration at a: the previous step's closing kick gathered it from the
// same field at the same positions, so the opening kick reuses it.
func (s *Solver) step(parts particles.Set, a, da float64, warm bool) error {
	if da <= 0 {
		return fmt.Errorf("nbody: step da must be positive, got %g", da)
	}
	if !warm {
		if s.accA != a {
			s.deposit(parts)
			if err := s.solve(s.rho, a); err != nil {
				return err
			}
		} else {
			s.locate(parts)
		}
		s.gatherAccel()
	}
	s.kickDrift(parts, a, da)
	aNew := a + da
	s.deposit(parts)
	if err := s.solve(s.rho, aNew); err != nil {
		return err
	}
	s.secondKick(parts, a, aNew, da)
	return nil
}

// Run advances the particle set from a0 to a1 in nsteps equal steps in a,
// invoking onStep (if non-nil) after each step with the step index and the
// new expansion factor; onStep must not change the particles. It is the
// serial equivalent of the paper's RAMSES3d run between two snapshots.
func (s *Solver) Run(parts particles.Set, a0, a1 float64, nsteps int, onStep func(step int, a float64)) error {
	if a1 <= a0 {
		return fmt.Errorf("nbody: a1 %g must exceed a0 %g", a1, a0)
	}
	if nsteps <= 0 {
		return fmt.Errorf("nbody: nsteps must be positive, got %d", nsteps)
	}
	da := (a1 - a0) / float64(nsteps)
	a := a0
	for step := 0; step < nsteps; step++ {
		if err := s.step(parts, a, da, step > 0); err != nil {
			return fmt.Errorf("nbody: step %d (a=%.4f): %w", step, a, err)
		}
		a += da
		if onStep != nil {
			onStep(step, a)
		}
	}
	return nil
}

// ProjectDensity integrates the CIC density along the given axis (0=x, 1=y,
// 2=z) and returns an Ng×Ng surface-density map normalised to mean 1 — the
// "projected density field" of the paper's Figure 2.
func (s *Solver) ProjectDensity(parts particles.Set, axis int) ([]float64, error) {
	if axis < 0 || axis > 2 {
		return nil, fmt.Errorf("nbody: axis must be 0, 1 or 2, got %d", axis)
	}
	n := s.p.Ng
	rho := make([]float64, n*n*n)
	var total float64
	for i := range parts {
		total += parts[i].Mass
		depositCIC(rho, n, parts[i].Pos, parts[i].Mass)
	}
	out := make([]float64, n*n)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				v := rho[(iz*n+iy)*n+ix]
				switch axis {
				case 0:
					out[iz*n+iy] += v
				case 1:
					out[iz*n+ix] += v
				default:
					out[iy*n+ix] += v
				}
			}
		}
	}
	if total > 0 {
		mean := total / float64(n*n)
		for i := range out {
			out[i] /= mean
		}
	}
	return out, nil
}
