package hilbert

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripSmall(t *testing.T) {
	const order = 3
	n := uint32(1) << order
	seen := make(map[uint64]bool)
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			for z := uint32(0); z < n; z++ {
				d := Encode(x, y, z, order)
				if d >= 1<<(3*order) {
					t.Fatalf("Encode(%d,%d,%d) = %d out of range", x, y, z, d)
				}
				if seen[d] {
					t.Fatalf("Encode(%d,%d,%d) = %d collides", x, y, z, d)
				}
				seen[d] = true
				gx, gy, gz := Decode(d, order)
				if gx != x || gy != y || gz != z {
					t.Fatalf("Decode(Encode(%d,%d,%d)) = (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
	if len(seen) != int(n*n*n) {
		t.Fatalf("curve visits %d cells, want %d", len(seen), n*n*n)
	}
}

func TestCurveAdjacency(t *testing.T) {
	// The defining property: consecutive curve indices are grid neighbours
	// (Manhattan distance exactly 1).
	const order = 4
	total := uint64(1) << (3 * order)
	px, py, pz := Decode(0, order)
	for d := uint64(1); d < total; d++ {
		x, y, z := Decode(d, order)
		dist := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if dist != 1 {
			t.Fatalf("indices %d and %d map to cells (%d,%d,%d) and (%d,%d,%d): distance %d",
				d-1, d, px, py, pz, x, y, z, dist)
		}
		px, py, pz = x, y, z
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(x, y, z uint32, ord uint8) bool {
		order := uint(ord%MaxOrder) + 1
		mask := uint32(1)<<order - 1
		x, y, z = x&mask, y&mask, z&mask
		gx, gy, gz := Decode(Encode(x, y, z, order), order)
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeCoversCurve(t *testing.T) {
	for _, nranks := range []int{1, 2, 3, 7, 11, 64} {
		domains, err := Decompose(3, nranks)
		if err != nil {
			t.Fatalf("Decompose(3, %d): %v", nranks, err)
		}
		if len(domains) != nranks {
			t.Fatalf("got %d domains, want %d", len(domains), nranks)
		}
		var prev uint64
		for i, d := range domains {
			if d.Lo != prev {
				t.Errorf("nranks=%d: domain %d starts at %d, want %d", nranks, i, d.Lo, prev)
			}
			if d.Hi < d.Lo {
				t.Errorf("nranks=%d: domain %d inverted [%d,%d)", nranks, i, d.Lo, d.Hi)
			}
			prev = d.Hi
		}
		if prev != 512 {
			t.Errorf("nranks=%d: coverage ends at %d, want 512", nranks, prev)
		}
	}
}

func TestDecomposeBalance(t *testing.T) {
	domains, err := Decompose(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(1) << 12
	ideal := float64(total) / 11
	for _, d := range domains {
		size := float64(d.Hi - d.Lo)
		if size < ideal-1 || size > ideal+1 {
			t.Errorf("domain %d has %g cells, ideal %g", d.Rank, size, ideal)
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(3, 0); err == nil {
		t.Error("expected error for 0 ranks")
	}
	if _, err := Decompose(0, 2); err == nil {
		t.Error("expected error for order 0")
	}
	if _, err := Decompose(1, 9); err == nil {
		t.Error("expected error when ranks exceed cells")
	}
}

func TestDecomposeWeighted(t *testing.T) {
	const order = 2 // 64 cells
	weights := make([]float64, 64)
	// All the load in the first 16 cells.
	for i := 0; i < 16; i++ {
		weights[i] = 1
	}
	domains, err := DecomposeWeighted(order, 4, weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != 4 {
		t.Fatalf("got %d domains, want 4", len(domains))
	}
	// Coverage invariants hold regardless of skew.
	var prev uint64
	for _, d := range domains {
		if d.Lo != prev {
			t.Fatalf("gap: domain %d starts at %d, want %d", d.Rank, d.Lo, prev)
		}
		prev = d.Hi
	}
	if prev != 64 {
		t.Fatalf("coverage ends at %d, want 64", prev)
	}
	// Load balance: each of the first three domains should carry ~4 loaded
	// cells (the skewed load is split, not dumped on rank 0).
	load := func(d Domain) (sum float64) {
		for i := d.Lo; i < d.Hi; i++ {
			sum += weights[i]
		}
		return
	}
	for r := 0; r < 3; r++ {
		if l := load(domains[r]); l < 3 || l > 6 {
			t.Errorf("rank %d carries load %g, want ≈4", r, l)
		}
	}
}

func TestDecomposeWeightedErrors(t *testing.T) {
	if _, err := DecomposeWeighted(2, 2, make([]float64, 63)); err == nil {
		t.Error("expected error for wrong weight count")
	}
	w := make([]float64, 64)
	w[3] = -1
	if _, err := DecomposeWeighted(2, 2, w); err == nil {
		t.Error("expected error for negative weight")
	}
	if _, err := DecomposeWeighted(2, 0, make([]float64, 64)); err == nil {
		t.Error("expected error for 0 ranks")
	}
}

func TestOwnerOf(t *testing.T) {
	domains, _ := Decompose(3, 5)
	for d := uint64(0); d < 512; d++ {
		r := OwnerOf(domains, d)
		if r < 0 || !domains[r].Contains(d) {
			t.Fatalf("OwnerOf(%d) = %d, domain [%d,%d)", d, r, domains[r].Lo, domains[r].Hi)
		}
	}
	if r := OwnerOf(domains[:2], 511); r != -1 {
		t.Errorf("OwnerOf outside coverage = %d, want -1", r)
	}
}

func TestOwnerOfProperty(t *testing.T) {
	domains, _ := Decompose(4, 7)
	f := func(d uint64) bool {
		d %= 1 << 12
		r := OwnerOf(domains, d)
		return r >= 0 && domains[r].Contains(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCellIndexWraps(t *testing.T) {
	const order = 4
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x, y, z := rng.Float64(), rng.Float64(), rng.Float64()
		base := CellIndex(x, y, z, order)
		wrapped := CellIndex(x+1, y-1, z+1, order)
		if base != wrapped {
			t.Fatalf("CellIndex not periodic at (%g,%g,%g): %d vs %d", x, y, z, base, wrapped)
		}
	}
	// Boundary: exactly 1.0 must not index out of the grid.
	if d := CellIndex(1.0, 1.0, 1.0, order); d >= 1<<(3*order) {
		t.Errorf("CellIndex(1,1,1) = %d out of range", d)
	}
}

func TestCellIndexLocality(t *testing.T) {
	// Two points in the same grid cell share an index.
	const order = 3
	a := CellIndex(0.101, 0.201, 0.301, order)
	b := CellIndex(0.102, 0.202, 0.302, order)
	if a != b {
		t.Errorf("same-cell positions map to different indices: %d vs %d", a, b)
	}
}

// Decode maps a Peano–Hilbert curve index back to grid coordinates on a
// 2^order per-axis grid. It is the exact inverse of Encode.
func Decode(d uint64, order uint) (x, y, z uint32) {
	coords := deinterleave(d, order)
	n := uint32(2) << (order - 1)
	// Gray decode by H ^ (H/2).
	t := coords[2] >> 1
	for i := 2; i > 0; i-- {
		coords[i] ^= coords[i-1]
	}
	coords[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if coords[i]&q != 0 {
				coords[0] ^= p
			} else {
				t := (coords[0] ^ coords[i]) & p
				coords[0] ^= t
				coords[i] ^= t
			}
		}
	}
	return coords[0], coords[1], coords[2]
}

// Contains reports whether Hilbert index d belongs to the domain.
func (dom Domain) Contains(d uint64) bool { return d >= dom.Lo && d < dom.Hi }

// DecomposeWeighted splits the curve into nranks contiguous domains so that
// each carries a near-equal share of the given per-cell weights (e.g. particle
// counts per coarse cell in Hilbert order). weights[i] is the load of curve
// cell i; len(weights) must be 2^(3*order). This is the load-balancing step
// RAMSES performs at each coarse time step.
func DecomposeWeighted(order uint, nranks int, weights []float64) ([]Domain, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("hilbert: nranks must be positive, got %d", nranks)
	}
	total := uint64(1) << (3 * order)
	if uint64(len(weights)) != total {
		return nil, fmt.Errorf("hilbert: got %d weights, want %d for order %d", len(weights), total, order)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("hilbert: negative weight %g at cell %d", w, i)
		}
		sum += w
	}
	domains := make([]Domain, 0, nranks)
	target := sum / float64(nranks)
	var acc float64
	lo := uint64(0)
	for i := uint64(0); i < total; i++ {
		acc += weights[i]
		// Close the current domain once it reaches its proportional share,
		// keeping enough cells for the remaining ranks.
		remainingRanks := nranks - len(domains)
		if acc >= target && total-i-1 >= uint64(remainingRanks-1) && remainingRanks > 1 {
			domains = append(domains, Domain{Rank: len(domains), Lo: lo, Hi: i + 1})
			lo = i + 1
			acc = 0
		}
	}
	domains = append(domains, Domain{Rank: len(domains), Lo: lo, Hi: total})
	// Pad with empty trailing domains if weights were so skewed we closed early.
	for len(domains) < nranks {
		domains = append(domains, Domain{Rank: len(domains), Lo: total, Hi: total})
	}
	return domains, nil
}

// deinterleave unpacks a curve index into transpose-form coordinates.
func deinterleave(d uint64, order uint) [3]uint32 {
	var coords [3]uint32
	for b := int(order) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			shift := uint(3*b + (2 - i))
			coords[i] = coords[i]<<1 | uint32((d>>shift)&1)
		}
	}
	return coords
}
