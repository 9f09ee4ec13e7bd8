// Package halo implements HaloMaker, the first GALICS post-processing stage:
// it detects dark-matter halos in a RAMSES snapshot with the friends-of-
// friends (FoF) algorithm and produces the catalog of halo positions, masses
// and velocities from which the zoom targets are selected (paper §4).
package halo

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/particles"
)

// Params configures the FoF finder.
type Params struct {
	LinkingLength float64 // b, in units of the mean inter-particle separation (standard 0.2)
	MinParticles  int     // discard groups smaller than this (standard 20)
}

// DefaultParams returns the community-standard FoF configuration.
func DefaultParams() Params { return Params{LinkingLength: 0.2, MinParticles: 20} }

// Halo is one detected dark-matter halo.
type Halo struct {
	ID    int        // catalog index, densest first
	NPart int        // member particle count
	Mass  float64    // total member mass, M☉/h
	Pos   [3]float64 // centre of mass, box units (periodically unwrapped)
	Vel   [3]float64 // mass-weighted mean peculiar velocity, km/s
	R     float64    // RMS member distance from centre, box units
	IDs   []int64    // member particle IDs, sorted (TreeMaker matches on these)
}

// Catalog is a set of halos found in one snapshot, sorted by mass descending.
type Catalog struct {
	A      float64 // expansion factor of the snapshot
	Box    float64 // box size, Mpc/h
	Halos  []Halo
	NPart  int // particles in the searched snapshot
	BValue float64
}

// FindHalos runs friends-of-friends on the particle set. The linking length
// is params.LinkingLength × n^(−1/3) in box units, where n is the particle
// count: two particles are friends when closer than that, and halos are the
// transitive closures. A cell grid of the linking length's size reduces the
// pair search to the 27 neighbouring cells.
func FindHalos(parts particles.Set, a, box float64, params Params) (*Catalog, error) {
	if params.LinkingLength <= 0 {
		return nil, fmt.Errorf("halo: linking length must be positive, got %g", params.LinkingLength)
	}
	if params.MinParticles < 1 {
		return nil, fmt.Errorf("halo: MinParticles must be >= 1, got %d", params.MinParticles)
	}
	n := len(parts)
	cat := &Catalog{A: a, Box: box, NPart: n, BValue: params.LinkingLength}
	if n == 0 {
		return cat, nil
	}
	link := params.LinkingLength / math.Cbrt(float64(n))
	link2 := link * link

	// Bin particles on a grid with cell >= linking length so that all
	// friends of a particle lie in the 27 surrounding cells.
	ncell := int(1 / link)
	if ncell < 1 {
		ncell = 1
	}
	if ncell > 256 {
		ncell = 256
	}
	index := newCellIndex(parts, ncell)

	// Visit each occupied cell once and test its particles against each
	// other and against the particles of the 13 neighbour cells in the
	// forward half of its 3×3×3 neighbourhood: (x+1) in its own row, x−1…x+1
	// in row (y+1, z) and in the three rows (y−1…y+1, z+1). Every pair of
	// cells within one cell of each other is then visited from exactly one
	// side, so each pair of particles is tested once. On an axis of fewer
	// than three cells the forward and backward neighbours coincide and some
	// pairs are tested twice, which links nothing new.
	uf := newUnionFind(n)
	f := fof{parts: parts, link2: link2, uf: uf, index: index}
	for lo := 0; lo < n; {
		key := index.sorted[lo] >> 32
		hi := lo + 1
		for hi < n && index.sorted[hi]>>32 == key {
			hi++
		}
		cell := index.sorted[lo:hi]
		lo = hi
		c := int(key)
		cx, cy, cz := c%ncell, c/ncell%ncell, c/(ncell*ncell)
		for a, e := range cell {
			f.linkAll(int(uint32(e)), cell[a+1:])
		}
		xm, xp := (cx+ncell-1)%ncell, (cx+1)%ncell
		ym, yp := (cy+ncell-1)%ncell, (cy+1)%ncell
		zp := (cz + 1) % ncell
		f.linkRow(cell, cz*ncell+cy, xp, xp, xp)
		f.linkRow(cell, cz*ncell+yp, xm, cx, xp)
		for _, y := range [3]int{ym, cy, yp} {
			f.linkRow(cell, zp*ncell+y, xm, cx, xp)
		}
	}

	// Collect groups: count each root's members, lay the groups that reach
	// MinParticles out in one array, and fill them in particle order.
	size := make([]int32, n)
	for i := 0; i < n; i++ {
		size[uf.find(i)]++
	}
	start := make([]int32, n) // for a kept root, where its next member goes
	kept := 0
	for r, sz := range size {
		if int(sz) >= params.MinParticles {
			start[r] = int32(kept)
			kept += int(sz)
		} else {
			size[r] = 0
		}
	}
	members := make([]int, kept)
	for i := 0; i < n; i++ {
		if r := uf.find(i); size[r] > 0 {
			members[start[r]] = i
			start[r]++
		}
	}
	for r, sz := range size {
		if sz > 0 {
			end := start[r] // every member placed, so start has reached the group's end
			cat.Halos = append(cat.Halos, makeHalo(parts, members[end-sz:end]))
		}
	}
	sort.Slice(cat.Halos, func(i, j int) bool {
		if cat.Halos[i].Mass != cat.Halos[j].Mass {
			return cat.Halos[i].Mass > cat.Halos[j].Mass
		}
		return cat.Halos[i].IDs[0] < cat.Halos[j].IDs[0] // deterministic tie-break
	})
	for i := range cat.Halos {
		cat.Halos[i].ID = i
	}
	return cat, nil
}

// fof is the state of one friends-of-friends pair search.
type fof struct {
	parts particles.Set
	link2 float64 // squared linking length, box units
	uf    *unionFind
	index *cellIndex
}

// linkAll joins particle i with each particle of entries closer than the
// linking length.
func (f *fof) linkAll(i int, entries []uint64) {
	pi := f.parts[i].Pos
	for _, e := range entries {
		if j := int(uint32(e)); particles.Dist2(pi, f.parts[j].Pos) <= f.link2 {
			f.uf.union(i, j)
		}
	}
}

// linkRow joins the particles of cell with their friends among the
// particles of the given row whose x cell is x0, x1 or x2. A row holds about
// one particle at the linking length, so it is scanned, not searched.
func (f *fof) linkRow(cell []uint64, row, x0, x1, x2 int) {
	x := f.index
	base := uint64(row * x.ncell)
	for _, e := range x.sorted[x.rowStart[row]:x.rowStart[row+1]] {
		if c := int(e>>32 - base); c != x0 && c != x1 && c != x2 {
			continue
		}
		j := int(uint32(e))
		pj := f.parts[j].Pos
		for _, ec := range cell {
			if i := int(uint32(ec)); particles.Dist2(f.parts[i].Pos, pj) <= f.link2 {
				f.uf.union(i, j)
			}
		}
	}
}

// cellIndex bins particles on an ncell³ grid without a table of ncell³
// entries (at the linking length most cells are empty). Cells are keyed
// (iz*ncell+iy)*ncell+ix, so the particles of one cell are adjacent in key
// order, and the particles of one (iz, iy) row are found from the row's
// start.
type cellIndex struct {
	ncell    int
	sorted   []uint64 // cell key <<32 | particle index, ascending
	rowStart []int32  // row r's particles are sorted[rowStart[r]:rowStart[r+1]]
}

// newCellIndex sorts the particles by cell key: a counting sort by row,
// which keeps each row's entries in particle order, then a sort of each
// row's few entries.
func newCellIndex(parts particles.Set, ncell int) *cellIndex {
	x := &cellIndex{
		ncell:    ncell,
		sorted:   make([]uint64, len(parts)),
		rowStart: make([]int32, ncell*ncell+1),
	}
	cellOf := func(v float64) int {
		c := int(particles.Wrap(v) * float64(ncell))
		if c >= ncell {
			c = ncell - 1
		}
		return c
	}
	rowOf := func(pos [3]float64) int { return cellOf(pos[2])*ncell + cellOf(pos[1]) }
	for i := range parts {
		x.rowStart[rowOf(parts[i].Pos)+1]++
	}
	for r := 0; r < ncell*ncell; r++ {
		x.rowStart[r+1] += x.rowStart[r]
	}
	// Place each entry at its row's cursor, rowStart[row], which ends at the
	// next row's start; shifting by one restores the starts.
	for i := range parts {
		pos := parts[i].Pos
		row := rowOf(pos)
		x.sorted[x.rowStart[row]] = uint64(row*ncell+cellOf(pos[0]))<<32 | uint64(i)
		x.rowStart[row]++
	}
	copy(x.rowStart[1:], x.rowStart)
	x.rowStart[0] = 0
	for r := 0; r < ncell*ncell; r++ {
		slices.Sort(x.sorted[x.rowStart[r]:x.rowStart[r+1]])
	}
	return x
}

// makeHalo aggregates the member particles into a Halo, unwrapping periodic
// images around the first member so the centre of mass is meaningful for
// groups straddling the box edge.
func makeHalo(parts particles.Set, members []int) Halo {
	ref := parts[members[0]].Pos
	var h Halo
	h.NPart = len(members)
	var com [3]float64
	for _, idx := range members {
		p := &parts[idx]
		h.Mass += p.Mass
		for d := 0; d < 3; d++ {
			com[d] += p.Mass * (ref[d] + particles.PeriodicDelta(p.Pos[d], ref[d]))
			h.Vel[d] += p.Mass * p.Vel[d]
		}
		h.IDs = append(h.IDs, p.ID)
	}
	for d := 0; d < 3; d++ {
		com[d] /= h.Mass
		h.Vel[d] /= h.Mass
		com[d] = particles.Wrap(com[d])
	}
	h.Pos = com
	var r2sum float64
	for _, idx := range members {
		r2sum += parts[idx].Mass * particles.Dist2(parts[idx].Pos, com)
	}
	h.R = math.Sqrt(r2sum / h.Mass)
	sort.Slice(h.IDs, func(i, j int) bool { return h.IDs[i] < h.IDs[j] })
	return h
}

// unionFind is a weighted quick-union with path compression.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
