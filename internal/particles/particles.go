// Package particles defines the dark-matter macro-particle representation
// shared by the initial-conditions generator, the N-body solver, and the
// post-processing pipeline (HaloMaker/TreeMaker/GalaxyMaker).
//
// Positions are comoving and expressed in top-level box units, i.e. each
// coordinate lives in [0, 1) with periodic wrapping. Velocities are peculiar
// velocities in km/s. Masses are in M☉/h.
package particles

import (
	"fmt"
	"math"
	"sort"
)

// Particle is one dark-matter macro-particle.
type Particle struct {
	Pos  [3]float64 // comoving position, box units [0,1)
	Vel  [3]float64 // peculiar velocity, km/s
	Mass float64    // M☉/h
	ID   int64      // unique, stable across snapshots (used by TreeMaker)
}

// Set is a collection of particles.
type Set []Particle

// TotalMass returns the summed mass of the set.
func (s Set) TotalMass() float64 {
	var m float64
	for i := range s {
		m += s[i].Mass
	}
	return m
}

// Wrap maps a coordinate into [0, 1) periodically.
func Wrap(x float64) float64 {
	x -= math.Floor(x)
	if x >= 1 { // guard against -1e-18 flooring to -0 then 1.0
		x = 0
	}
	return x
}

// WrapAll wraps every particle position into the unit box.
func (s Set) WrapAll() {
	for i := range s {
		for d := 0; d < 3; d++ {
			s[i].Pos[d] = Wrap(s[i].Pos[d])
		}
	}
}

// PeriodicDelta returns the minimum-image separation a-b in a unit periodic
// box, a value in [-0.5, 0.5).
func PeriodicDelta(a, b float64) float64 {
	d := a - b
	d -= math.Round(d)
	return d
}

// Dist2 returns the squared minimum-image distance between two positions in
// the unit periodic box.
func Dist2(a, b [3]float64) float64 {
	var sum float64
	for d := 0; d < 3; d++ {
		dd := PeriodicDelta(a[d], b[d])
		sum += dd * dd
	}
	return sum
}

// SortByID orders the set by particle ID; snapshot writers use it so files
// are deterministic regardless of domain-decomposition order.
func (s Set) SortByID() {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}

// Validate checks structural invariants: wrapped positions, positive masses,
// unique IDs. Intended for tests and post-I/O sanity checks.
func (s Set) Validate() error {
	seen := make(map[int64]struct{}, len(s))
	for i := range s {
		p := &s[i]
		for d := 0; d < 3; d++ {
			if p.Pos[d] < 0 || p.Pos[d] >= 1 || math.IsNaN(p.Pos[d]) {
				return fmt.Errorf("particles: particle %d coordinate %d out of unit box: %g", p.ID, d, p.Pos[d])
			}
			if math.IsNaN(p.Vel[d]) || math.IsInf(p.Vel[d], 0) {
				return fmt.Errorf("particles: particle %d velocity %d not finite: %g", p.ID, d, p.Vel[d])
			}
		}
		if p.Mass <= 0 || math.IsNaN(p.Mass) {
			return fmt.Errorf("particles: particle %d has non-positive mass %g", p.ID, p.Mass)
		}
		if _, dup := seen[p.ID]; dup {
			return fmt.Errorf("particles: duplicate particle ID %d", p.ID)
		}
		seen[p.ID] = struct{}{}
	}
	return nil
}

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}
