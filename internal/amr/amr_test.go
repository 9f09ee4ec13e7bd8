package amr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/particles"
)

func uniformLattice(n int) particles.Set {
	var parts particles.Set
	id := int64(0)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				parts = append(parts, particles.Particle{
					Pos:  [3]float64{(float64(ix) + 0.5) / float64(n), (float64(iy) + 0.5) / float64(n), (float64(iz) + 0.5) / float64(n)},
					Mass: 1, ID: id,
				})
				id++
			}
		}
	}
	return parts
}

func clusteredSet(n int, frac float64, seed int64) particles.Set {
	rng := rand.New(rand.NewSource(seed))
	var parts particles.Set
	for i := 0; i < n; i++ {
		p := particles.Particle{Mass: 1, ID: int64(i)}
		if rng.Float64() < frac {
			// Tight clump near (0.25, 0.25, 0.25).
			for d := 0; d < 3; d++ {
				p.Pos[d] = particles.Wrap(0.25 + 0.01*rng.NormFloat64())
			}
		} else {
			for d := 0; d < 3; d++ {
				p.Pos[d] = rng.Float64()
			}
		}
		parts = append(parts, p)
	}
	return parts
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Params{MaxLevel: -1, MRefine: 8}); err == nil {
		t.Error("expected error for negative MaxLevel")
	}
	if _, err := Build(nil, Params{MaxLevel: 5, MRefine: 0}); err == nil {
		t.Error("expected error for MRefine 0")
	}
}

func TestUniformRefinesEvenly(t *testing.T) {
	parts := uniformLattice(8) // 512 particles
	tree, err := Build(parts, Params{MaxLevel: 6, MRefine: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	// 512 particles, threshold 8: refines until cells hold 8 = level 2
	// (64 cells of 8)... 512/64 = 8 which is not > 8, so depth 2? Level 1
	// has 8 cells × 64 parts (>8) → refine; level 2 has 64 cells × 8 (==8,
	// not >) → stop. Uniformity means every leaf sits at the same level.
	if st.MaxDepth != 2 {
		t.Errorf("uniform lattice depth %d, want 2", st.MaxDepth)
	}
	if st.LeavesAt[2] != 64 {
		t.Errorf("%d leaves at level 2, want 64", st.LeavesAt[2])
	}
}

func TestMassAndCountConservation(t *testing.T) {
	parts := clusteredSet(2000, 0.5, 3)
	tree, err := Build(parts, Params{MaxLevel: 8, MRefine: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.TotalPart != len(parts) {
		t.Errorf("leaves hold %d particles, want %d", st.TotalPart, len(parts))
	}
	if math.Abs(st.TotalMass-parts.TotalMass()) > 1e-9 {
		t.Errorf("leaf mass %g, want %g", st.TotalMass, parts.TotalMass())
	}
}

func TestClusteredRefinesDeeper(t *testing.T) {
	uniform := clusteredSet(2000, 0, 5)
	clustered := clusteredSet(2000, 0.5, 5)
	tu, _ := Build(uniform, Params{MaxLevel: 10, MRefine: 8})
	tc, _ := Build(clustered, Params{MaxLevel: 10, MRefine: 8})
	du, dc := tu.Stats().MaxDepth, tc.Stats().MaxDepth
	if dc <= du {
		t.Errorf("clustered depth %d should exceed uniform depth %d", dc, du)
	}
	// The deepest leaf must be near the clump.
	cell := tc.MaxDensityCell()
	if cell == nil {
		t.Fatal("no max-density cell")
	}
	for d := 0; d < 3; d++ {
		if math.Abs(cell.Center[d]-0.25) > 0.1 {
			t.Errorf("densest cell at %v, want near (0.25,0.25,0.25)", cell.Center)
		}
	}
}

func TestMaxLevelRespected(t *testing.T) {
	parts := clusteredSet(5000, 1.0, 7) // everything in one clump
	tree, err := Build(parts, Params{MaxLevel: 3, MRefine: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Stats().MaxDepth; d > 3 {
		t.Errorf("depth %d exceeds MaxLevel 3", d)
	}
}

func TestLocate(t *testing.T) {
	parts := clusteredSet(1000, 0.3, 11)
	tree, err := Build(parts, Params{MaxLevel: 8, MRefine: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		pos := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		leaf := tree.Locate(pos)
		if leaf == nil || !leaf.IsLeaf() {
			t.Fatalf("Locate(%v) returned non-leaf", pos)
		}
		if !leaf.Contains(pos) {
			t.Fatalf("Locate(%v) returned cell at %v size %g not containing it", pos, leaf.Center, leaf.Size)
		}
	}
	// Positions outside [0,1) wrap.
	a := tree.Locate([3]float64{1.3, -0.7, 0.5})
	b := tree.Locate([3]float64{0.3, 0.3, 0.5})
	if a != b {
		t.Error("Locate must wrap periodically")
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	parts := clusteredSet(1500, 0.4, 17)
	tree, _ := Build(parts, Params{MaxLevel: 8, MRefine: 8})
	tree.Walk(func(c *Cell) bool {
		if c.Children == nil {
			return true
		}
		var count int
		var mass float64
		for _, ch := range c.Children {
			count += ch.NPart
			mass += ch.Mass
			if ch.Level != c.Level+1 {
				t.Fatalf("child level %d under parent level %d", ch.Level, c.Level)
			}
			if ch.Size != c.Size/2 {
				t.Fatalf("child size %g under parent size %g", ch.Size, c.Size)
			}
		}
		if count != c.NPart {
			t.Fatalf("children hold %d particles, parent %d", count, c.NPart)
		}
		if math.Abs(mass-c.Mass) > 1e-9*math.Max(1, c.Mass) {
			t.Fatalf("children mass %g, parent %g", mass, c.Mass)
		}
		return true
	})
}

func TestRefinementMap(t *testing.T) {
	parts := clusteredSet(2000, 0.5, 19)
	tree, _ := Build(parts, Params{MaxLevel: 8, MRefine: 8})
	st := tree.Stats()
	m := tree.RefinementMap(8)
	maxLvl := 0
	for _, l := range m {
		if l > maxLvl {
			maxLvl = l
		}
		if l < 0 || l > st.MaxDepth {
			t.Fatalf("map level %d outside [0,%d]", l, st.MaxDepth)
		}
	}
	// The raster can miss deepest cells only if they are smaller than a map
	// cell; with depth≥3 on an 8³ raster the clump must show up deeper than
	// the background.
	bg := m[0] // corner cell, far from the clump
	if maxLvl <= bg {
		t.Errorf("refinement map flat: max %d vs background %d", maxLvl, bg)
	}
}

func TestStatsEffectiveN(t *testing.T) {
	parts := uniformLattice(4)
	tree, _ := Build(parts, Params{MaxLevel: 6, MRefine: 8})
	st := tree.Stats()
	if st.EffectiveN != 1<<uint(st.MaxDepth) {
		t.Errorf("EffectiveN %d, want %d", st.EffectiveN, 1<<uint(st.MaxDepth))
	}
	if st.Cells < st.Leaves {
		t.Error("cells must be >= leaves")
	}
}

func TestEmptyTree(t *testing.T) {
	tree, err := Build(nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Leaves != 1 || st.MaxDepth != 0 {
		t.Errorf("empty tree: %+v", st)
	}
	if tree.MaxDensityCell() != nil {
		t.Error("empty tree has no densest cell")
	}
}

// Contains reports whether pos lies inside the cell (half-open bounds).
func (c *Cell) Contains(pos [3]float64) bool {
	h := c.Size / 2
	for d := 0; d < 3; d++ {
		if pos[d] < c.Center[d]-h || pos[d] >= c.Center[d]+h {
			return false
		}
	}
	return true
}

// RefinementMap rasterises the tree's local depth onto an n×n×n grid: each
// output cell holds the level of the leaf covering it. The zoom pipeline uses
// it to verify that resolution concentrates on the re-simulated region.
func (t *Tree) RefinementMap(n int) []int {
	out := make([]int, n*n*n)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				pos := [3]float64{
					(float64(ix) + 0.5) / float64(n),
					(float64(iy) + 0.5) / float64(n),
					(float64(iz) + 0.5) / float64(n),
				}
				out[(iz*n+iy)*n+ix] = t.Locate(pos).Level
			}
		}
	}
	return out
}

// MaxDensityCell returns the leaf with the highest mass density — a cheap
// proxy for "highest-density peak" used when picking zoom targets in tests.
func (t *Tree) MaxDensityCell() *Cell {
	var best *Cell
	bestRho := math.Inf(-1)
	t.Walk(func(c *Cell) bool {
		if c.IsLeaf() && c.NPart > 0 {
			if rho := c.Density(); rho > bestRho {
				bestRho = rho
				best = c
			}
		}
		return true
	})
	return best
}

// Density returns the cell's mass density in box units (mass per unit volume).
func (c *Cell) Density() float64 {
	v := c.Size * c.Size * c.Size
	return c.Mass / v
}

// Locate returns the leaf containing pos (wrapped into the unit box).
func (t *Tree) Locate(pos [3]float64) *Cell {
	for d := 0; d < 3; d++ {
		pos[d] = particles.Wrap(pos[d])
	}
	c := t.Root
	for !c.IsLeaf() {
		c = &c.Children[octant(c.Center, pos)]
	}
	return c
}
