// Package amr implements the adaptive-mesh-refinement octree RAMSES is built
// around (Teyssier 2002): a fully-threaded tree over the unit box whose cells
// refine wherever the particle count exceeds a quasi-Lagrangian threshold.
// The tree provides the refinement maps used by the zoom pipeline and the
// per-level statistics reported with each snapshot.
package amr

import (
	"fmt"
	"math"

	"repro/internal/particles"
)

// Params controls tree construction.
type Params struct {
	MaxLevel int // deepest refinement level (root is level 0 over the unit box)
	MRefine  int // refine a cell when it holds more than this many particles
}

// DefaultParams mirrors RAMSES' common m_refine=8 quasi-Lagrangian policy.
func DefaultParams() Params { return Params{MaxLevel: 12, MRefine: 8} }

// Cell is one node of the octree. Leaves carry the particle indices that fall
// inside them; interior cells carry aggregated counts only.
type Cell struct {
	Level    int
	Center   [3]float64
	Size     float64 // edge length, box units
	Children *[8]Cell
	NPart    int
	Mass     float64
	PartIdx  []int // indices into the build set, ascending; leaves only, nil when empty
}

// IsLeaf reports whether the cell has no children.
func (c *Cell) IsLeaf() bool { return c.Children == nil }

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

// Density returns the cell's mass density in box units (mass per unit volume).
func (c *Cell) Density() float64 {
	v := c.Size * c.Size * c.Size
	return c.Mass / v
}

// Tree is an AMR octree over the unit box.
type Tree struct {
	Root   *Cell
	Params Params
	parts  particles.Set
}

// Build constructs the octree for the particle set, refining every cell whose
// particle count exceeds p.MRefine until p.MaxLevel. The leaves' PartIdx are
// disjoint sub-slices of one index array.
func Build(parts particles.Set, p Params) (*Tree, error) {
	if p.MaxLevel < 0 || p.MaxLevel > 30 {
		return nil, fmt.Errorf("amr: MaxLevel must be in [0,30], got %d", p.MaxLevel)
	}
	if p.MRefine < 1 {
		return nil, fmt.Errorf("amr: MRefine must be >= 1, got %d", p.MRefine)
	}
	root := &Cell{Level: 0, Center: [3]float64{0.5, 0.5, 0.5}, Size: 1}
	root.PartIdx = make([]int, len(parts))
	for i := range parts {
		root.PartIdx[i] = i
		root.Mass += parts[i].Mass
	}
	root.NPart = len(parts)
	t := &Tree{Root: root, Params: p, parts: parts}
	t.refine(root, make([]int, len(parts)))
	return t, nil
}

// refine recursively splits cells exceeding the particle threshold. A split
// partitions the cell's indices by octant in place, stably, through scratch
// (at least as long), so each child's indices stay in ascending order and
// its mass is summed in that order.
func (t *Tree) refine(c *Cell, scratch []int) {
	if c.NPart <= t.Params.MRefine || c.Level >= t.Params.MaxLevel {
		return
	}
	children := new([8]Cell)
	h := c.Size / 4
	for o := range children {
		center := c.Center
		if o&1 != 0 {
			center[0] += h
		} else {
			center[0] -= h
		}
		if o&2 != 0 {
			center[1] += h
		} else {
			center[1] -= h
		}
		if o&4 != 0 {
			center[2] += h
		} else {
			center[2] -= h
		}
		children[o] = Cell{Level: c.Level + 1, Center: center, Size: c.Size / 2}
	}
	idx := c.PartIdx
	for _, i := range idx {
		p := &t.parts[i]
		child := &children[octant(c.Center, p.Pos)]
		child.NPart++
		child.Mass += p.Mass
	}
	var next [8]int // where each octant's next index goes
	for o, off := 1, 0; o < 8; o++ {
		off += children[o-1].NPart
		next[o] = off
	}
	for _, i := range idx {
		o := octant(c.Center, t.parts[i].Pos)
		scratch[next[o]] = i
		next[o]++
	}
	copy(idx, scratch[:len(idx)])
	for o := range children {
		if child := &children[o]; child.NPart > 0 {
			end := next[o]
			child.PartIdx = idx[end-child.NPart : end : end]
		}
	}
	c.PartIdx = nil
	c.Children = children
	for o := range children {
		t.refine(&children[o], scratch)
	}
}

// octant returns the child index (bit0=x, bit1=y, bit2=z) of pos relative to
// the cell centre.
func octant(center, pos [3]float64) int {
	o := 0
	if pos[0] >= center[0] {
		o |= 1
	}
	if pos[1] >= center[1] {
		o |= 2
	}
	if pos[2] >= center[2] {
		o |= 4
	}
	return o
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

// Walk visits every cell in depth-first order; returning false from visit
// prunes the subtree below that cell.
func (t *Tree) Walk(visit func(*Cell) bool) {
	var rec func(*Cell)
	rec = func(c *Cell) {
		if !visit(c) {
			return
		}
		if c.Children != nil {
			for o := range c.Children {
				rec(&c.Children[o])
			}
		}
	}
	rec(t.Root)
}

// Stats summarises a tree: totals and the per-level cell/leaf histogram.
type Stats struct {
	Cells      int
	Leaves     int
	MaxDepth   int
	CellsAt    []int // indexed by level
	LeavesAt   []int
	TotalMass  float64
	TotalPart  int
	EffectiveN int // 2^MaxDepth: finest equivalent uniform grid per axis
}

// Stats computes tree statistics in one walk.
func (t *Tree) Stats() Stats {
	s := Stats{
		CellsAt:  make([]int, t.Params.MaxLevel+1),
		LeavesAt: make([]int, t.Params.MaxLevel+1),
	}
	t.Walk(func(c *Cell) bool {
		s.Cells++
		s.CellsAt[c.Level]++
		if c.Level > s.MaxDepth {
			s.MaxDepth = c.Level
		}
		if c.IsLeaf() {
			s.Leaves++
			s.LeavesAt[c.Level]++
			s.TotalMass += c.Mass
			s.TotalPart += c.NPart
		}
		return true
	})
	s.EffectiveN = 1 << uint(s.MaxDepth)
	return s
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
