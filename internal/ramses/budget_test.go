package ramses

import "testing"

// phase2AllocBudget bounds the heap allocations of one zoom re-simulation at
// the benchmark's campaign configuration. The kernels made 27 091 before the
// solver kept its stencils, the FFT batched its lines, the octree
// partitioned one index array and FoF searched rows by scan, and about
// 1 100 after; the budget leaves room for the GALICS chain and the
// catalogues to grow, not for a per-particle or per-cell allocation to come
// back.
const phase2AllocBudget = 5000

func TestPhase2AllocationBudget(t *testing.T) {
	cfg := campaignConfig(1)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Phase2(cfg, [3]float64{0.5, 0.5, 0.5}, 2, ""); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > phase2AllocBudget {
		t.Errorf("one Phase2 made %.0f allocations, budget %d", allocs, phase2AllocBudget)
	}
}
