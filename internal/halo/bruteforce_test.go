package halo

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/grafic"
	"repro/internal/nbody"
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
	slices.SortFunc(kept, func(a, b []int64) int { return cmp.Compare(a[0], b[0]) })
	return kept
}

// catalogGroups returns a catalogue's halos in bruteForceGroups' form.
func catalogGroups(cat *Catalog) [][]int64 {
	groups := make([][]int64, 0, len(cat.Halos))
	for _, h := range cat.Halos {
		groups = append(groups, h.IDs)
	}
	slices.SortFunc(groups, func(a, b []int64) int { return cmp.Compare(a[0], b[0]) })
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

func TestFindHalosMatchesBruteForceOnZoom(t *testing.T) {
	// The particle set FoF meets in the benchmark's campaign: a two-level
	// zoom on the box centre (7680 particles, a dense refined region inside
	// a coarse one), evolved to both snapshots the campaign catalogues.
	c := cosmo.WMAP3()
	gen, err := grafic.New(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := gen.MultiLevel(16, 100, 0.1, [3]float64{0.5, 0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := nbody.New(nbody.Params{Ng: 16, Box: 100, Cosmo: c})
	if err != nil {
		t.Fatal(err)
	}
	parts := ics.Parts.Clone()
	a := 0.1
	for _, snap := range []struct {
		aout float64
		fof  []Params
	}{
		{0.5, []Params{{LinkingLength: 0.25, MinParticles: 2}}},                                        // no group reaches 8 yet
		{1.0, []Params{{LinkingLength: 0.25, MinParticles: 8}, {LinkingLength: 0.2, MinParticles: 1}}}, // the campaign's, and every group
	} {
		if err := s.Run(parts, a, snap.aout, 4, nil); err != nil {
			t.Fatal(err)
		}
		a = snap.aout
		for _, p := range snap.fof {
			cat, err := FindHalos(parts, a, 100, p)
			if err != nil {
				t.Fatal(err)
			}
			got, want := catalogGroups(cat), bruteForceGroups(parts, p.LinkingLength, p.MinParticles)
			if len(want) == 0 {
				t.Fatalf("a=%g %+v: brute force finds no group, the check is empty", a, p)
			}
			if !slices.EqualFunc(got, want, func(a, b []int64) bool { return slices.Equal(a, b) }) {
				t.Errorf("a=%g %+v: %d halos %v, brute force finds %d %v", a, p, len(got), sizes(got), len(want), sizes(want))
			}
		}
	}
}
