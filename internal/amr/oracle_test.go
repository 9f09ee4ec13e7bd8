package amr

import (
	"math"
	"slices"
	"testing"

	"repro/internal/particles"
)

// refCell is a node of the octree as Build made it before the partitioned
// build: eight separately allocated children, each leaf's indices appended
// one by one in the parent's order.
type refCell struct {
	level    int
	center   [3]float64
	size     float64
	children *[8]*refCell
	npart    int
	mass     float64
	partIdx  []int
}

// referenceBuild is that build.
func referenceBuild(parts particles.Set, p Params) *refCell {
	root := &refCell{center: [3]float64{0.5, 0.5, 0.5}, size: 1}
	root.partIdx = make([]int, len(parts))
	for i := range parts {
		root.partIdx[i] = i
		root.mass += parts[i].Mass
	}
	root.npart = len(parts)
	var refine func(c *refCell)
	refine = func(c *refCell) {
		if c.npart <= p.MRefine || c.level >= p.MaxLevel {
			return
		}
		var children [8]*refCell
		h := c.size / 4
		for o := range children {
			center := c.center
			for d := 0; d < 3; d++ {
				if o&(1<<d) != 0 {
					center[d] += h
				} else {
					center[d] -= h
				}
			}
			children[o] = &refCell{level: c.level + 1, center: center, size: c.size / 2}
		}
		for _, idx := range c.partIdx {
			child := children[octant(c.center, parts[idx].Pos)]
			child.partIdx = append(child.partIdx, idx)
			child.npart++
			child.mass += parts[idx].Mass
		}
		c.partIdx = nil
		c.children = &children
		for _, child := range children {
			refine(child)
		}
	}
	refine(root)
	return root
}

// refWalk visits the reference tree depth first, children in octant order,
// the order Tree.Walk visits cells in.
func refWalk(c *refCell, visit func(*refCell)) {
	visit(c)
	if c.children != nil {
		for _, ch := range c.children {
			refWalk(ch, visit)
		}
	}
}

func TestBuildMatchesReferenceBitForBit(t *testing.T) {
	// Every snapshot reports Tree.Stats and callers read leaves, so every
	// cell must match the appending build: same shape, counts, mass bits and
	// leaf indices in order, which also fixes Stats.
	sets := map[string]particles.Set{
		"clustered":  clusteredSet(3000, 0.6, 23),
		"tight":      clusteredSet(2000, 0.95, 5),
		"lattice":    uniformLattice(8),
		"one":        clusteredSet(1, 0, 1),
		"empty":      nil,
		"mixed mass": clusteredSet(1500, 0.4, 9),
	}
	for i := range sets["mixed mass"] {
		sets["mixed mass"][i].Mass = 1 + float64(i%7)/3
	}
	for name, parts := range sets {
		for _, p := range []Params{DefaultParams(), {MaxLevel: 3, MRefine: 2}, {MaxLevel: 12, MRefine: 1}} {
			tree, err := Build(parts, p)
			if err != nil {
				t.Fatal(err)
			}
			var want []*refCell
			refWalk(referenceBuild(parts, p), func(c *refCell) { want = append(want, c) })
			k := 0
			tree.Walk(func(c *Cell) bool {
				if k >= len(want) {
					t.Fatalf("%s %+v: tree has more than the reference's %d cells", name, p, len(want))
				}
				r := want[k]
				k++
				if c.Level != r.level || c.Center != r.center || c.Size != r.size ||
					c.NPart != r.npart || math.Float64bits(c.Mass) != math.Float64bits(r.mass) ||
					c.IsLeaf() != (r.children == nil) {
					t.Fatalf("%s %+v: cell %d is %+v, reference %+v", name, p, k-1, *c, *r)
				}
				if !slices.Equal(c.PartIdx, r.partIdx) || (c.PartIdx == nil) != (r.partIdx == nil) {
					t.Fatalf("%s %+v: cell %d holds indices %v, reference %v", name, p, k-1, c.PartIdx, r.partIdx)
				}
				return true
			})
			if k != len(want) {
				t.Fatalf("%s %+v: tree has %d cells, reference %d", name, p, k, len(want))
			}
		}
	}
}
