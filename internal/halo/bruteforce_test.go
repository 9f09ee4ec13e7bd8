package halo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/particles"
)

// bruteForceGroups is the reference friends-of-friends: every pair of the set
// is tested, no cell grid. It returns the sorted member IDs of each group of
// at least minParticles, ordered by first ID.
func bruteForceGroups(parts particles.Set, b float64, minParticles int) [][]int64 {
	n := len(parts)
	link := b / math.Cbrt(float64(n))
	group := make([]int, n) // group label of each particle, -1 = not reached yet
	for i := range group {
		group[i] = -1
	}
	var groups [][]int64
	for seed := range parts {
		if group[seed] >= 0 {
			continue
		}
		label := len(groups)
		group[seed] = label
		ids := []int64{parts[seed].ID}
		for queue := []int{seed}; len(queue) > 0; queue = queue[1:] {
			for j := range parts {
				if group[j] < 0 && particles.Dist2(parts[queue[0]].Pos, parts[j].Pos) <= link*link {
					group[j] = label
					ids = append(ids, parts[j].ID)
					queue = append(queue, j)
				}
			}
		}
		slices.Sort(ids)
		groups = append(groups, ids)
	}
	kept := groups[:0]
	for _, ids := range groups {
		if len(ids) >= minParticles {
			kept = append(kept, ids)
		}
	}
	slices.SortFunc(kept, func(a, b []int64) int { return int(a[0] - b[0]) })
	return kept
}

// catalogGroups returns a catalogue's halos in bruteForceGroups' form.
func catalogGroups(cat *Catalog) [][]int64 {
	groups := make([][]int64, 0, len(cat.Halos))
	for _, h := range cat.Halos {
		groups = append(groups, h.IDs)
	}
	slices.SortFunc(groups, func(a, b []int64) int { return int(a[0] - b[0]) })
	return groups
}

func scattered(rng *rand.Rand, n int, idBase int64) particles.Set {
	out := make(particles.Set, n)
	for i := range out {
		out[i] = particles.Particle{
			Pos:  [3]float64{rng.Float64(), rng.Float64(), rng.Float64()},
			Mass: 1, ID: idBase + int64(i),
		}
	}
	return out
}

func TestFindHalosMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	clustered := scattered(rng, 300, 0)
	clustered = append(clustered, clump(rng, [3]float64{0.3, 0.7, 0.5}, 60, 0.01, 1000)...)
	clustered = append(clustered, clump(rng, [3]float64{0.999, 0.002, 0.5}, 40, 0.01, 2000)...) // straddles an edge and a corner line
	clustered = append(clustered, clump(rng, [3]float64{0.5, 0.5, 0.9995}, 9, 0.002, 3000)...)
	// On the box faces themselves, where a coordinate of exactly 0 and one
	// just below 1 are neighbours.
	faces := particles.Set{
		{Pos: [3]float64{0, 0, 0}, Mass: 1, ID: 0},
		{Pos: [3]float64{1 - 1e-12, 0, 0}, Mass: 1, ID: 1},
		{Pos: [3]float64{0, 1 - 1e-12, 1 - 1e-12}, Mass: 1, ID: 2},
		{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1, ID: 3},
		{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1, ID: 4}, // coincident pair
	}
	sets := []struct {
		name  string
		parts particles.Set
	}{
		{"scattered", scattered(rng, 400, 0)},
		{"clustered", clustered},
		{"faces", faces},
		{"few", scattered(rng, 27, 0)},
	}
	// The linking lengths reach from a sparse grid down to the degenerate
	// ones: for 27 particles b = 1.2 gives 2 cells per axis and b = 2 gives 1,
	// where a cell is its own neighbour several times over.
	for _, s := range sets {
		for _, b := range []float64{0.1, 0.2, 0.5, 1.2, 2, 5} {
			for _, minParticles := range []int{1, 2, 9, 10} {
				name := fmt.Sprintf("%s/b=%g/min=%d", s.name, b, minParticles)
				cat, err := FindHalos(s.parts, 1, 100, Params{LinkingLength: b, MinParticles: minParticles})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, want := catalogGroups(cat), bruteForceGroups(s.parts, b, minParticles)
				if !slices.EqualFunc(got, want, func(a, b []int64) bool { return slices.Equal(a, b) }) {
					t.Errorf("%s: %d halos %v, brute force finds %d %v", name, len(got), sizes(got), len(want), sizes(want))
				}
			}
		}
	}
}

func sizes(groups [][]int64) []int {
	out := make([]int, len(groups))
	for i, g := range groups {
		out[i] = len(g)
	}
	return out
}

func TestNeighboursAreDistinct(t *testing.T) {
	for ncell := 1; ncell <= 5; ncell++ {
		for c := 0; c < ncell; c++ {
			cells, n := neighbours(c, ncell)
			got := slices.Clone(cells[:n])
			slices.Sort(got)
			var want []int
			for _, d := range []int{-1, 0, 1} {
				want = append(want, ((c+d)%ncell+ncell)%ncell)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(got, want) {
				t.Errorf("neighbours(%d, %d) = %v, want %v", c, ncell, got, want)
			}
		}
	}
}
