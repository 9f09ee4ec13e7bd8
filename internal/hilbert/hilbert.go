// Package hilbert implements the 3-D Peano–Hilbert space-filling curve and
// the Hilbert-ordered domain decomposition RAMSES uses to partition the
// computational volume among processes (Teyssier 2002, §2.3).
//
// The encoding follows Skilling's transpose algorithm: a point on a 2^order
// grid per axis maps to a curve index in [0, 2^(3*order)), such that points
// adjacent along the curve are adjacent in space. Contiguous index ranges
// therefore correspond to compact spatial domains, which is what makes the
// curve a good mesh-partitioning key.
package hilbert

import "fmt"

// MaxOrder is the largest supported curve order; 3*21 = 63 index bits fit a
// uint64 with a sign bit to spare.
const MaxOrder = 21

// Encode maps grid coordinates (x, y, z) on a 2^order per-axis grid to the
// Peano–Hilbert curve index. Coordinates must lie in [0, 2^order).
func Encode(x, y, z uint32, order uint) uint64 {
	coords := [3]uint32{x, y, z}
	// Inverse undo excess work: convert Hilbert transpose to index later.
	m := uint32(1) << (order - 1)
	// Gray-code style rotation pass (Skilling's algorithm, forward direction).
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if coords[i]&q != 0 {
				coords[0] ^= p // invert
			} else {
				t := (coords[0] ^ coords[i]) & p
				coords[0] ^= t
				coords[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		coords[i] ^= coords[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if coords[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		coords[i] ^= t
	}
	return interleave(coords, order)
}

// interleave packs the transpose-form coordinates into a single curve index,
// taking bit b of x, y, z in turn from the most significant plane down.
func interleave(coords [3]uint32, order uint) uint64 {
	var d uint64
	for b := int(order) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			d = d<<1 | uint64((coords[i]>>uint(b))&1)
		}
	}
	return d
}

// Domain is a contiguous half-open range [Lo, Hi) of Hilbert indices owned by
// one process.
type Domain struct {
	Rank int    // owning process rank
	Lo   uint64 // first Hilbert index owned (inclusive)
	Hi   uint64 // last Hilbert index owned (exclusive)
}

// Decompose splits the full curve [0, 2^(3*order)) into nranks contiguous
// domains with near-equal cell counts. This is the load-oblivious split used
// at simulation start-up, before any particle weights are known.
func Decompose(order uint, nranks int) ([]Domain, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("hilbert: nranks must be positive, got %d", nranks)
	}
	if order == 0 || order > MaxOrder {
		return nil, fmt.Errorf("hilbert: order must be in [1,%d], got %d", MaxOrder, order)
	}
	total := uint64(1) << (3 * order)
	if uint64(nranks) > total {
		return nil, fmt.Errorf("hilbert: %d ranks exceed %d curve cells", nranks, total)
	}
	domains := make([]Domain, nranks)
	for r := 0; r < nranks; r++ {
		lo := total * uint64(r) / uint64(nranks)
		hi := total * uint64(r+1) / uint64(nranks)
		domains[r] = Domain{Rank: r, Lo: lo, Hi: hi}
	}
	return domains, nil
}

// OwnerOf returns the rank owning Hilbert index d in a sorted domain list.
func OwnerOf(domains []Domain, d uint64) int {
	lo, hi := 0, len(domains)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case d < domains[mid].Lo:
			hi = mid
		case d >= domains[mid].Hi:
			lo = mid + 1
		default:
			return domains[mid].Rank
		}
	}
	return -1
}

// CellIndex quantises a position in the unit box [0,1)^3 onto the 2^order
// grid and returns its Hilbert index. Positions are wrapped periodically.
func CellIndex(px, py, pz float64, order uint) uint64 {
	n := float64(uint64(1) << order)
	wrap := func(v float64) uint32 {
		v -= float64(int(v)) // cheap floor toward zero for v in (-1, 2)
		if v < 0 {
			v++
		}
		i := uint32(v * n)
		if i >= uint32(n) {
			i = uint32(n) - 1
		}
		return i
	}
	return Encode(wrap(px), wrap(py), wrap(pz), order)
}
