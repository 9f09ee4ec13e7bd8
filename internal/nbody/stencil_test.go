package nbody

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/particles"
)

// referenceCIC is cloud-in-cell written out as the three nested loops over
// the two cells per axis, wrapping every index with a division. visit is
// called for the eight cells in (dz, dy, dx) order with the three weights.
func referenceCIC(n int, pos [3]float64, visit func(cell int, wx, wy, wz float64)) {
	var i0 [3]int
	var f [3]float64
	for d := 0; d < 3; d++ {
		u := particles.Wrap(pos[d])*float64(n) - 0.5
		base := math.Floor(u)
		f[d] = u - base
		i0[d] = int(base)
	}
	mod := func(v int) int { return ((v % n) + n) % n }
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
				visit((mod(i0[2]+dz)*n+mod(i0[1]+dy))*n+mod(i0[0]+dx), wx, wy, wz)
			}
		}
	}
}

func TestStencilMatchesReferenceBitForBit(t *testing.T) {
	// The solver's outputs are pinned to the bit (ramses golden test), so the
	// shared stencil must round exactly as the loops it replaced: same cells,
	// same order, value·wx·wy·wz multiplied left to right.
	const n = 8
	rng := rand.New(rand.NewSource(17))
	var grids [3][]float64
	for d := range grids {
		grids[d] = make([]float64, n*n*n)
		for i := range grids[d] {
			grids[d][i] = rng.NormFloat64()
		}
	}
	s := newSolver(t, n)
	s.acc = grids
	positions := [][3]float64{
		{0, 0, 0}, {1 - 1e-16, 0.5, 0.5}, {0.5 / n, 0.5 / n, 0.5 / n}, // faces and a cell centre
		{-0.25, 1.75, 3}, // outside the unit box
	}
	for i := 0; i < 200; i++ {
		positions = append(positions, [3]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	for _, pos := range positions {
		got := s.AccelAt(pos)
		for d := range grids {
			var want float64
			referenceCIC(n, pos, func(cell int, wx, wy, wz float64) { want += grids[d][cell] * wx * wy * wz })
			if got[d] != want {
				t.Fatalf("AccelAt(%v)[%d] = %v, reference %v", pos, d, got[d], want)
			}
			if one := interpCIC(grids[d], n, pos); one != want {
				t.Fatalf("interpCIC(%v) on grid %d = %v, reference %v", pos, d, one, want)
			}
		}
		m := rng.Float64()
		got1, want1 := make([]float64, n*n*n), make([]float64, n*n*n)
		depositCIC(got1, n, pos, m)
		referenceCIC(n, pos, func(cell int, wx, wy, wz float64) { want1[cell] += m * wx * wy * wz })
		for cell := range got1 {
			if got1[cell] != want1[cell] {
				t.Fatalf("depositCIC(%v) cell %d = %v, reference %v", pos, cell, got1[cell], want1[cell])
			}
		}
	}
}

func TestDensityReturnsAFreshArray(t *testing.T) {
	// Step refills one buffer of its own before each solve; an array Density
	// handed out earlier must not be that buffer.
	s := newSolver(t, 8)
	parts := particles.Set{{Pos: [3]float64{0.3, 0.3, 0.3}, Mass: 1, ID: 1}, {Pos: [3]float64{0.6, 0.6, 0.6}, Mass: 1, ID: 2}}
	before := s.Density(parts)
	kept := append([]float64(nil), before...)
	if err := s.Step(parts, 0.5, 0.01); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != kept[i] {
			t.Fatalf("a Step overwrote cell %d of an array Density returned earlier", i)
		}
	}
}

// interpCIC samples grid at pos with the same CIC kernel used for deposit,
// which guarantees momentum-conserving force interpolation.
func interpCIC(grid []float64, n int, pos [3]float64) float64 {
	var st cicStencil
	st.at(n, pos)
	return st.gather(grid)
}

// gather samples grid at the stencil's position.
func (st *cicStencil) gather(grid []float64) float64 {
	var sum float64
	for c, cell := range st.cell {
		sum += grid[cell] * st.w[0][c&1] * st.w[1][c>>1&1] * st.w[2][c>>2]
	}
	return sum
}
