// Package hydro implements the finite-volume Euler solver RAMSES couples to
// its N-body core (paper §4: "a state-of-the-art 'N body solver', coupled to
// a finite volume Euler solver"): compressible gas dynamics on a periodic
// 3-D grid with a MUSCL (minmod-limited) reconstruction, an HLL Riemann
// solver and Strang-style dimensional splitting, plus the gravity source
// hook the coupled solver uses.
//
// Conserved variables are density ρ, momentum density (mx,my,mz) and total
// energy density E, with the ideal-gas closure p = (γ−1)(E − ½ρv²).
package hydro

import (
	"fmt"
	"math"
)

// Grid holds the conserved fields on a periodic NX×NY×NZ mesh covering the
// unit box, flattened in (iz*NY+iy)*NX+ix order. Cell sizes are 1/NX, 1/NY,
// 1/NZ per axis; shock-tube tests use thin boxes like 256×4×4.
type Grid struct {
	NX, NY, NZ int
	Gamma      float64 // adiabatic index (5/3 for the cosmological gas)
	Rho        []float64
	Mx         []float64
	My         []float64
	Mz         []float64
	E          []float64
}

// NewBox allocates an NX×NY×NZ grid filled with vacuum.
func NewBox(nx, ny, nz int, gamma float64) (*Grid, error) {
	if nx < 4 || ny < 4 || nz < 4 {
		return nil, fmt.Errorf("hydro: box %dx%dx%d too small (need >= 4 per axis)", nx, ny, nz)
	}
	if gamma <= 1 {
		return nil, fmt.Errorf("hydro: gamma must exceed 1, got %g", gamma)
	}
	size := nx * ny * nz
	return &Grid{
		NX: nx, NY: ny, NZ: nz, Gamma: gamma,
		Rho: make([]float64, size),
		Mx:  make([]float64, size),
		My:  make([]float64, size),
		Mz:  make([]float64, size),
		E:   make([]float64, size),
	}, nil
}

// Size returns the cell count.
func (g *Grid) Size() int { return g.NX * g.NY * g.NZ }

// Idx returns the flat index of (ix, iy, iz).
func (g *Grid) Idx(ix, iy, iz int) int { return (iz*g.NY+iy)*g.NX + ix }

// SetPrimitive stores a cell from primitive variables (ρ, v, p).
func (g *Grid) SetPrimitive(i int, rho, vx, vy, vz, p float64) {
	g.Rho[i] = rho
	g.Mx[i] = rho * vx
	g.My[i] = rho * vy
	g.Mz[i] = rho * vz
	g.E[i] = p/(g.Gamma-1) + 0.5*rho*(vx*vx+vy*vy+vz*vz)
}

// Pressure returns the gas pressure of cell i.
func (g *Grid) Pressure(i int) float64 {
	rho := g.Rho[i]
	if rho <= 0 {
		return 0
	}
	kin := 0.5 * (g.Mx[i]*g.Mx[i] + g.My[i]*g.My[i] + g.Mz[i]*g.Mz[i]) / rho
	return (g.Gamma - 1) * (g.E[i] - kin)
}

// SoundSpeed returns the adiabatic sound speed of cell i.
func (g *Grid) SoundSpeed(i int) float64 {
	p := g.Pressure(i)
	if p <= 0 || g.Rho[i] <= 0 {
		return 0
	}
	return math.Sqrt(g.Gamma * p / g.Rho[i])
}

// Totals returns the domain-integrated conserved quantities, the solver's
// conservation invariants.
func (g *Grid) Totals() (mass, momX, momY, momZ, energy float64) {
	for i := range g.Rho {
		mass += g.Rho[i]
		momX += g.Mx[i]
		momY += g.My[i]
		momZ += g.Mz[i]
		energy += g.E[i]
	}
	vol := 1.0 / float64(g.Size())
	return mass * vol, momX * vol, momY * vol, momZ * vol, energy * vol
}

// Solver advances a Grid in time.
type Solver struct {
	G   *Grid
	CFL float64 // Courant number, default 0.4
}

// NewSolver wraps a grid with the standard CFL number.
func NewSolver(g *Grid) *Solver { return &Solver{G: g, CFL: 0.4} }

// MaxDt returns the largest stable time step under the CFL condition, using
// the smallest cell extent.
func (s *Solver) MaxDt() float64 {
	g := s.G
	dx := math.Min(1.0/float64(g.NX), math.Min(1.0/float64(g.NY), 1.0/float64(g.NZ)))
	maxSpeed := 1e-12
	for i := range g.Rho {
		if g.Rho[i] <= 0 {
			continue
		}
		v := math.Sqrt(g.Mx[i]*g.Mx[i]+g.My[i]*g.My[i]+g.Mz[i]*g.Mz[i]) / g.Rho[i]
		if sp := v + g.SoundSpeed(i); sp > maxSpeed {
			maxSpeed = sp
		}
	}
	return s.CFL * dx / maxSpeed
}

// cell1d is the 1-D state in a sweep: (ρ, parallel momentum, two transverse
// momenta, E).
type cell1d [5]float64

// flux1d computes the physical flux of a 1-D state.
func flux1d(u cell1d, gamma float64) cell1d {
	rho := u[0]
	if rho <= 0 {
		return cell1d{}
	}
	v := u[1] / rho
	kin := 0.5 * (u[1]*u[1] + u[2]*u[2] + u[3]*u[3]) / rho
	p := (gamma - 1) * (u[4] - kin)
	if p < 0 {
		p = 0
	}
	return cell1d{
		u[1],
		u[1]*v + p,
		u[2] * v,
		u[3] * v,
		(u[4] + p) * v,
	}
}

// hll returns the HLL flux between left and right states.
func hll(l, r cell1d, gamma float64) cell1d {
	speeds := func(u cell1d) (v, c float64) {
		rho := u[0]
		if rho <= 0 {
			return 0, 0
		}
		v = u[1] / rho
		kin := 0.5 * (u[1]*u[1] + u[2]*u[2] + u[3]*u[3]) / rho
		p := (gamma - 1) * (u[4] - kin)
		if p < 0 {
			p = 0
		}
		c = math.Sqrt(gamma * p / rho)
		return
	}
	vl, cl := speeds(l)
	vr, cr := speeds(r)
	sl := math.Min(vl-cl, vr-cr)
	sr := math.Max(vl+cl, vr+cr)
	fl := flux1d(l, gamma)
	fr := flux1d(r, gamma)
	switch {
	case sl >= 0:
		return fl
	case sr <= 0:
		return fr
	default:
		var out cell1d
		inv := 1 / (sr - sl)
		for k := 0; k < 5; k++ {
			out[k] = (sr*fl[k] - sl*fr[k] + sl*sr*(r[k]-l[k])) * inv
		}
		return out
	}
}

// minmod is the slope limiter of the MUSCL reconstruction.
func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// sweep advances every grid line along one axis by dt with a MUSCL-HLL
// update. index maps (line, position) to flat indices; perm names the
// parallel momentum component first.
func (s *Solver) sweep(dt float64, lineLen, nLines int, dx float64, index func(line, k int) int, perm [3]int) {
	g := s.G
	lam := dt / dx
	u := make([]cell1d, lineLen)
	fluxes := make([]cell1d, lineLen+1)
	mom := [3][]float64{g.Mx, g.My, g.Mz}

	for line := 0; line < nLines; line++ {
		for k := 0; k < lineLen; k++ {
			i := index(line, k)
			u[k] = cell1d{g.Rho[i], mom[perm[0]][i], mom[perm[1]][i], mom[perm[2]][i], g.E[i]}
		}
		mod := func(k int) int {
			k %= lineLen
			if k < 0 {
				k += lineLen
			}
			return k
		}
		// MUSCL: limited linear states at each interface, then HLL.
		for k := 0; k <= lineLen; k++ {
			kl, kr := mod(k-1), mod(k)
			var left, right cell1d
			for c := 0; c < 5; c++ {
				sl := minmod(u[kl][c]-u[mod(k-2)][c], u[kr][c]-u[kl][c])
				sr := minmod(u[kr][c]-u[kl][c], u[mod(k+1)][c]-u[kr][c])
				left[c] = u[kl][c] + 0.5*sl
				right[c] = u[kr][c] - 0.5*sr
			}
			fluxes[k] = hll(left, right, g.Gamma)
		}
		for k := 0; k < lineLen; k++ {
			i := index(line, k)
			g.Rho[i] -= lam * (fluxes[k+1][0] - fluxes[k][0])
			mom[perm[0]][i] -= lam * (fluxes[k+1][1] - fluxes[k][1])
			mom[perm[1]][i] -= lam * (fluxes[k+1][2] - fluxes[k][2])
			mom[perm[2]][i] -= lam * (fluxes[k+1][3] - fluxes[k][3])
			g.E[i] -= lam * (fluxes[k+1][4] - fluxes[k][4])
		}
	}
}

// Step advances the gas by dt using dimensionally split sweeps (x, y, z).
func (s *Solver) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("hydro: dt must be positive, got %g", dt)
	}
	g := s.G
	nx, ny, nz := g.NX, g.NY, g.NZ
	s.sweep(dt, nx, ny*nz, 1.0/float64(nx), func(line, k int) int {
		iy, iz := line%ny, line/ny
		return (iz*ny+iy)*nx + k
	}, [3]int{0, 1, 2})
	s.sweep(dt, ny, nx*nz, 1.0/float64(ny), func(line, k int) int {
		ix, iz := line%nx, line/nx
		return (iz*ny+k)*nx + ix
	}, [3]int{1, 0, 2})
	s.sweep(dt, nz, nx*ny, 1.0/float64(nz), func(line, k int) int {
		ix, iy := line%nx, line/nx
		return (k*ny+iy)*nx + ix
	}, [3]int{2, 0, 1})
	return nil
}

// ApplyGravity adds the momentum and energy source terms of a gravitational
// acceleration field over dt — the hook through which the coupled RAMSES
// solver feeds the PM force into the gas.
func (s *Solver) ApplyGravity(gx, gy, gz []float64, dt float64) error {
	g := s.G
	size := g.Size()
	if len(gx) != size || len(gy) != size || len(gz) != size {
		return fmt.Errorf("hydro: acceleration grids must have %d cells", size)
	}
	for i := 0; i < size; i++ {
		rho := g.Rho[i]
		if rho <= 0 {
			continue
		}
		g.E[i] += dt * (g.Mx[i]*gx[i] + g.My[i]*gy[i] + g.Mz[i]*gz[i]) / rho
		g.Mx[i] += dt * rho * gx[i]
		g.My[i] += dt * rho * gy[i]
		g.Mz[i] += dt * rho * gz[i]
	}
	return nil
}

// Run advances the gas to tEnd with CFL-limited steps, returning the number
// of steps taken.
func (s *Solver) Run(tEnd float64) (int, error) {
	t, steps := 0.0, 0
	for t < tEnd {
		dt := s.MaxDt()
		if dt <= 0 {
			return steps, fmt.Errorf("hydro: vanishing time step at t=%g", t)
		}
		if t+dt > tEnd {
			dt = tEnd - t
		}
		if err := s.Step(dt); err != nil {
			return steps, err
		}
		t += dt
		steps++
		if steps > 1_000_000 {
			return steps, fmt.Errorf("hydro: step limit reached at t=%g", t)
		}
	}
	return steps, nil
}

// SodX initialises the classic Sod shock tube along x: left state
// (ρ=1, p=1), right state (ρ=0.125, p=0.1), gas at rest, interface at x=0.5.
// In the periodic box a mirror Riemann problem also fires at the x=0 wrap;
// tests sample regions those boundary waves have not reached.
func SodX(g *Grid) {
	for iz := 0; iz < g.NZ; iz++ {
		for iy := 0; iy < g.NY; iy++ {
			for ix := 0; ix < g.NX; ix++ {
				i := g.Idx(ix, iy, iz)
				if ix < g.NX/2 {
					g.SetPrimitive(i, 1, 0, 0, 0, 1)
				} else {
					g.SetPrimitive(i, 0.125, 0, 0, 0, 0.1)
				}
			}
		}
	}
}
