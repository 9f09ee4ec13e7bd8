package grafic

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/particles"
)

// MultiLevel generates nested "Russian doll" initial conditions for a zoom
// re-simulation (paper §4, "multiple levels"). nLevels is the total number of
// boxes including the top one; each finer box has half the side of its parent
// and is centred on `center` (top-box units), so the finest box is sampled at
// 2^(nLevels-1)× the top-level resolution. Long-wavelength modes on a fine
// level are inherited from its parent field; small-scale power above the
// parent's Nyquist frequency is added from fresh noise, keeping the
// realisation consistent across levels.
//
// The returned particle set tiles the whole volume exactly once: each level
// contributes its cells except where the next finer box takes over.
func (g *Generator) MultiLevel(n int, topBox, astart float64, center [3]float64, nLevels int) (*ICs, error) {
	if nLevels < 1 {
		return nil, fmt.Errorf("grafic: nLevels must be >= 1, got %d", nLevels)
	}
	if nLevels == 1 {
		return g.SingleLevel(n, topBox, astart)
	}
	if astart <= 0 || astart > 1 {
		return nil, fmt.Errorf("grafic: astart must be in (0,1], got %g", astart)
	}

	ics := &ICs{Cosmo: g.Cosmo, Astart: astart, Box: topBox}
	deltas := make([]*fft.Grid3, nLevels)
	levels := make([]Level, nLevels)

	for l := 0; l < nLevels; l++ {
		frac := math.Pow(0.5, float64(l))
		boxSize := topBox * frac
		var origin [3]float64
		if l > 0 {
			for d := 0; d < 3; d++ {
				origin[d] = particles.Wrap(center[d] - frac/2)
			}
		}
		levels[l] = Level{Index: l, N: n, BoxSize: boxSize, Origin: origin, Dx: boxSize / float64(n)}

		if l == 0 {
			d0, err := g.DeltaField(n, boxSize, astart)
			if err != nil {
				return nil, err
			}
			deltas[0] = d0
			continue
		}
		// Small-scale power above the parent Nyquist frequency, from fresh
		// noise tagged by level so realisations are reproducible per level.
		parent := levels[l-1]
		kNyqParent := math.Pi / parent.Dx
		noise, err := g.WhiteNoise(n, int64(l))
		if err != nil {
			return nil, err
		}
		small, err := g.deltaFromNoise(noise, boxSize, astart, kNyqParent)
		if err != nil {
			return nil, err
		}
		// Long-wavelength part: trilinear sample of the parent level's field
		// at this level's cell centres. For l >= 2 the parent box is treated
		// as periodic over its own extent — a boundary approximation that is
		// standard for nested-grid IC generators at this fidelity.
		combined, _ := fft.NewGrid3(n)
		for iz := 0; iz < n; iz++ {
			for iy := 0; iy < n; iy++ {
				for ix := 0; ix < n; ix++ {
					pos := [3]float64{
						origin[0] + (float64(ix)+0.5)*frac/float64(n),
						origin[1] + (float64(iy)+0.5)*frac/float64(n),
						origin[2] + (float64(iz)+0.5)*frac/float64(n),
					}
					long := sampleTrilinear(deltas[l-1], pos, parent.Origin, math.Pow(0.5, float64(l-1)))
					idx := (iz*n+iy)*n + ix
					combined.Data[idx] = complex(long+real(small.Data[idx]), 0)
				}
			}
		}
		deltas[l] = combined
	}

	// Generate particles level by level, masking out the region the next
	// finer level covers so the volume is tiled exactly once.
	all := make(particles.Set, 0, nLevels*n*n*n)
	for l := 0; l < nLevels; l++ {
		psi, err := displacement(deltas[l], levels[l].BoxSize)
		if err != nil {
			return nil, err
		}
		var skip func(q [3]float64) bool
		if l < nLevels-1 {
			next := levels[l+1]
			nextFrac := math.Pow(0.5, float64(l+1))
			skip = func(q [3]float64) bool { return inBox(q, next.Origin, nextFrac) }
		}
		frac := math.Pow(0.5, float64(l))
		lvlParts := g.levelParticles(psi, n, topBox, astart, levels[l].Origin, frac, int64(l)<<40, skip)
		all = append(all, lvlParts...)
	}
	all.WrapAll()

	ics.Levels = levels
	ics.Parts = all
	ics.Delta = deltas[0]
	return ics, nil
}

// levelParticles lays particles on one level's grid (skipping masked cells)
// and applies the Zel'dovich displacement and linear velocities.
func (g *Generator) levelParticles(psi [3]*fft.Grid3, n int, topBox, astart float64, origin [3]float64, frac float64, idBase int64, skip func([3]float64) bool) particles.Set {
	velFactor := astart * 100 * g.Cosmo.E(astart) * g.Cosmo.GrowthRate(astart)
	boxSize := topBox * frac
	mass := g.Cosmo.ParticleMass(boxSize, n)
	parts := make(particles.Set, 0, n*n*n)
	dxBox := frac / float64(n)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				q := [3]float64{
					particles.Wrap(origin[0] + (float64(ix)+0.5)*dxBox),
					particles.Wrap(origin[1] + (float64(iy)+0.5)*dxBox),
					particles.Wrap(origin[2] + (float64(iz)+0.5)*dxBox),
				}
				if skip != nil && skip(q) {
					continue
				}
				idx := (iz*n+iy)*n + ix
				var pos, vel [3]float64
				for d := 0; d < 3; d++ {
					disp := real(psi[d].Data[idx]) // Mpc/h comoving
					pos[d] = q[d] + disp/topBox
					vel[d] = velFactor * disp
				}
				parts = append(parts, particles.Particle{Pos: pos, Vel: vel, Mass: mass, ID: idBase + int64(idx)})
			}
		}
	}
	return parts
}

// inBox reports whether position q (top-box units) lies inside the axis-
// aligned periodic box at origin with side frac.
func inBox(q, origin [3]float64, frac float64) bool {
	for d := 0; d < 3; d++ {
		rel := particles.Wrap(q[d] - origin[d])
		if rel >= frac {
			return false
		}
	}
	return true
}

// sampleTrilinear samples grid (covering the box at parentOrigin with side
// parentFrac, in top-box units) at position pos with periodic trilinear
// interpolation in the grid's own coordinates.
func sampleTrilinear(grid *fft.Grid3, pos, parentOrigin [3]float64, parentFrac float64) float64 {
	n := grid.N
	var f [3]float64
	var i0 [3]int
	for d := 0; d < 3; d++ {
		rel := particles.Wrap(pos[d]-parentOrigin[d]) / parentFrac // [0,1) in parent box
		u := rel*float64(n) - 0.5                                  // cell-centre aligned
		base := math.Floor(u)
		f[d] = u - base
		i0[d] = int(base)
	}
	mod := func(v int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	var sum float64
	for dz := 0; dz < 2; dz++ {
		wz := f[2]
		if dz == 0 {
			wz = 1 - f[2]
		}
		for dy := 0; dy < 2; dy++ {
			wy := f[1]
			if dy == 0 {
				wy = 1 - f[1]
			}
			for dx := 0; dx < 2; dx++ {
				wx := f[0]
				if dx == 0 {
					wx = 1 - f[0]
				}
				v := real(grid.At(mod(i0[0]+dx), mod(i0[1]+dy), mod(i0[2]+dz)))
				sum += wx * wy * wz * v
			}
		}
	}
	return sum
}
