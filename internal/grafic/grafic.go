// Package grafic generates cosmological initial conditions the way the
// (modified) GRAFIC code does for RAMSES: Gaussian random fields consistent
// with a CDM power spectrum, turned into particle positions and velocities
// with the Zel'dovich approximation.
//
// Two modes are provided, matching the paper's §4:
//
//   - single level: the "standard" initial conditions used for the first,
//     low-resolution simulation from which the halo catalog is extracted;
//   - multiple levels: nested boxes of smaller and smaller dimensions, "as
//     for Russian dolls", used for the zoom re-simulations.
package grafic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/particles"
)

// Level describes one resolution level of a (possibly nested) set of initial
// conditions.
type Level struct {
	Index   int        // 0 = coarsest (top box)
	N       int        // grid points per axis at this level
	BoxSize float64    // comoving extent of this level's box, Mpc/h
	Origin  [3]float64 // lower corner in top-box units [0,1)
	Dx      float64    // cell size, Mpc/h
}

// ICs is a complete set of initial conditions at a single starting epoch.
type ICs struct {
	Cosmo  *cosmo.Params
	Astart float64 // starting expansion factor
	Box    float64 // top-level box size, Mpc/h
	Levels []Level
	Parts  particles.Set // positions in top-box units, velocities km/s
	Delta  *fft.Grid3    // top-level overdensity field at Astart (real part)
}

// Generator produces Gaussian random initial conditions. The zero value is
// not usable; construct with New.
type Generator struct {
	Cosmo *cosmo.Params
	Seed  int64
}

// New returns a Generator for the given cosmology and noise seed.
func New(c *cosmo.Params, seed int64) (*Generator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Generator{Cosmo: c, Seed: seed}, nil
}

// WhiteNoise returns an n³ grid of independent unit-variance Gaussian
// deviates, the raw material of every realisation. A given (seed, n, tag)
// triple always produces the same field.
func (g *Generator) WhiteNoise(n int, tag int64) (*fft.Grid3, error) {
	grid, err := fft.NewGrid3(n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(g.Seed*1000003 + tag))
	for i := range grid.Data {
		grid.Data[i] = complex(rng.NormFloat64(), 0)
	}
	return grid, nil
}

// RollWhiteNoise cyclically shifts the noise grid by (sx, sy, sz) cells so
// that the region of interest lands at the box centre. This reproduces the
// paper's workflow step 3, "rollWhiteNoise: centering according to the
// offsets cx, cy and cz": re-using the *same* shifted noise keeps the zoom
// realisation consistent with the parent run.
func RollWhiteNoise(grid *fft.Grid3, sx, sy, sz int) *fft.Grid3 {
	n := grid.N
	out, _ := fft.NewGrid3(n) // same n, cannot fail
	mod := func(v int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				out.Set(mod(ix+sx), mod(iy+sy), mod(iz+sz), grid.At(ix, iy, iz))
			}
		}
	}
	return out
}

// deltaFromNoise filters white noise with the power spectrum at expansion
// factor a: δ(k) = W(k)·√(P(k)·N³/V), optionally keeping only modes with
// |k| > kMin (used to add small-scale power on zoom levels). The returned
// grid holds the real-space overdensity.
func (g *Generator) deltaFromNoise(noise *fft.Grid3, boxSize, a, kMin float64) (*fft.Grid3, error) {
	n := noise.N
	delta, err := fft.NewGrid3(n)
	if err != nil {
		return nil, err
	}
	copy(delta.Data, noise.Data)
	if err := fft.Forward3(delta); err != nil {
		return nil, err
	}
	vol := boxSize * boxSize * boxSize
	norm := float64(n*n*n) / vol
	// P(k, a) = D(a)²·P(k): the growth factor is a quadrature and the same
	// for every mode, so it is taken once per field, and the product below
	// keeps the association order of (D(a)²·P(k)) * norm.
	growth := g.Cosmo.GrowthFactor(a)
	growth2 := growth * growth
	// WaveNumber(−f) = −WaveNumber(f), so the up to eight sign images
	// (±fx, ±fy, ±fz) of a mode share k to the bit: the loops run over
	// |f| ≤ n/2 per axis and scale every image with one amplitude.
	for fz := 0; fz <= n/2; fz++ {
		kz := fft.WaveNumber(fz, n, boxSize)
		zs, nz := signImages(fz, n)
		for fy := 0; fy <= n/2; fy++ {
			ky := fft.WaveNumber(fy, n, boxSize)
			ys, ny := signImages(fy, n)
			for fx := 0; fx <= n/2; fx++ {
				kx := fft.WaveNumber(fx, n, boxSize)
				xs, nx := signImages(fx, n)
				k := math.Sqrt(kx*kx + ky*ky + kz*kz)
				drop := k == 0 || k < kMin
				var amp complex128
				if !drop {
					amp = complex(math.Sqrt(growth2*g.Cosmo.Power(k)*norm), 0)
				}
				for _, iz := range zs[:nz] {
					for _, iy := range ys[:ny] {
						for _, ix := range xs[:nx] {
							idx := (iz*n+iy)*n + ix
							if drop {
								delta.Data[idx] = 0
							} else {
								delta.Data[idx] *= amp
							}
						}
					}
				}
			}
		}
	}
	if err := fft.Inverse3(delta); err != nil {
		return nil, err
	}
	return delta, nil
}

// signImages returns the grid indices of frequency index f ∈ [0, n/2] and of
// −f: one index for f = 0 and for the Nyquist index n/2, which is its own
// image, and two otherwise.
func signImages(f, n int) (idx [2]int, count int) {
	if f == 0 || 2*f == n {
		return [2]int{f}, 1
	}
	return [2]int{f, n - f}, 2
}

// DeltaField returns a real-space overdensity realisation on an n³ grid for
// a box of boxSize Mpc/h at expansion factor a.
func (g *Generator) DeltaField(n int, boxSize, a float64) (*fft.Grid3, error) {
	noise, err := g.WhiteNoise(n, 0)
	if err != nil {
		return nil, err
	}
	return g.deltaFromNoise(noise, boxSize, a, 0)
}

// displacement computes the Zel'dovich displacement field ψ from an
// overdensity grid: ψ(k) = i·k·δ(k)/k², returned as three real-space grids in
// the same length units as boxSize (Mpc/h).
func displacement(delta *fft.Grid3, boxSize float64) ([3]*fft.Grid3, error) {
	n := delta.N
	dk, err := fft.NewGrid3(n)
	if err != nil {
		return [3]*fft.Grid3{}, err
	}
	copy(dk.Data, delta.Data)
	if err := fft.Forward3(dk); err != nil {
		return [3]*fft.Grid3{}, err
	}
	var psi [3]*fft.Grid3
	for d := 0; d < 3; d++ {
		psi[d], _ = fft.NewGrid3(n)
	}
	for iz := 0; iz < n; iz++ {
		kz := fft.WaveNumber(iz, n, boxSize)
		for iy := 0; iy < n; iy++ {
			ky := fft.WaveNumber(iy, n, boxSize)
			for ix := 0; ix < n; ix++ {
				kx := fft.WaveNumber(ix, n, boxSize)
				k2 := kx*kx + ky*ky + kz*kz
				idx := (iz*n+iy)*n + ix
				if k2 == 0 {
					continue
				}
				dv := dk.Data[idx]
				// ψ_d(k) = i k_d δ(k) / k²
				psi[0].Data[idx] = complex(0, kx/k2) * dv
				psi[1].Data[idx] = complex(0, ky/k2) * dv
				psi[2].Data[idx] = complex(0, kz/k2) * dv
			}
		}
	}
	for d := 0; d < 3; d++ {
		if err := fft.Inverse3(psi[d]); err != nil {
			return [3]*fft.Grid3{}, err
		}
	}
	return psi, nil
}

// SingleLevel generates standard single-level initial conditions: n³
// particles in a periodic box of boxSize Mpc/h at expansion factor astart.
// Particles start on the grid, displaced by the Zel'dovich approximation;
// velocities follow the linear growing mode.
func (g *Generator) SingleLevel(n int, boxSize, astart float64) (*ICs, error) {
	if astart <= 0 || astart > 1 {
		return nil, fmt.Errorf("grafic: astart must be in (0,1], got %g", astart)
	}
	delta, err := g.DeltaField(n, boxSize, astart)
	if err != nil {
		return nil, err
	}
	psi, err := displacement(delta, boxSize)
	if err != nil {
		return nil, err
	}
	parts := g.particlesFromDisplacement(psi, n, boxSize, astart, [3]float64{0, 0, 0}, 1, 0)
	ics := &ICs{
		Cosmo:  g.Cosmo,
		Astart: astart,
		Box:    boxSize,
		Levels: []Level{{Index: 0, N: n, BoxSize: boxSize, Dx: boxSize / float64(n)}},
		Parts:  parts,
		Delta:  delta,
	}
	ics.Parts.WrapAll()
	return ics, nil
}

// particlesFromDisplacement lays particles on the level grid and applies the
// Zel'dovich displacement and velocity. The level occupies a sub-box of
// physical size boxSize starting at origin (top-box units, extent =
// boxSize/topBox = frac). idBase offsets particle IDs so levels never clash.
func (g *Generator) particlesFromDisplacement(psi [3]*fft.Grid3, n int, boxSize, astart float64, origin [3]float64, frac float64, idBase int64) particles.Set {
	// Velocity prefactor: v_pec [km/s] = a H(a) f D ... with δ already scaled
	// to astart the displacement is D(a)ψ₀, so v = a H(a) f(a) ψ(astart)
	// where ψ is in comoving Mpc/h and H in (km/s)/(Mpc/h) = 100 E(a).
	velFactor := astart * 100 * g.Cosmo.E(astart) * g.Cosmo.GrowthRate(astart)
	mass := g.Cosmo.ParticleMass(boxSize, n)
	parts := make(particles.Set, 0, n*n*n)
	dxBox := frac / float64(n) // one level-cell in top-box units
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				idx := (iz*n+iy)*n + ix
				var pos, vel [3]float64
				q := [3]int{ix, iy, iz}
				for d := 0; d < 3; d++ {
					disp := real(psi[d].Data[idx]) // Mpc/h, comoving
					pos[d] = origin[d] + (float64(q[d])+0.5)*dxBox + disp/boxSize*frac
					vel[d] = velFactor * disp
				}
				parts = append(parts, particles.Particle{
					Pos:  pos,
					Vel:  vel,
					Mass: mass,
					ID:   idBase + int64(idx),
				})
			}
		}
	}
	return parts
}
