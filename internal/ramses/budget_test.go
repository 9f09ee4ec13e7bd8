package ramses

import (
	"runtime"
	"testing"
)

// phase2AllocBudget bounds the heap allocations of one zoom re-simulation at
// the benchmark's campaign configuration. The kernels made 27 091 before the
// solver kept its stencils, the FFT batched its lines, the octree
// partitioned one index array and FoF searched rows by scan, and about
// 1 100 after; 131 once the run stopped building an AMR tree per output that
// nothing read (Result.Tree builds one on demand). The budget leaves room
// for the GALICS chain and the catalogues to grow, not for a per-particle or
// per-cell allocation, nor the per-output tree, to come back.
const phase2AllocBudget = 400

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

// phase2ByteBudget bounds the bytes one in-memory zoom re-simulation at the
// campaign configuration allocates. It was 5.97 MB while Run cloned the
// initial conditions it had just generated, every output snapshot cloned the
// evolving set and the nested levels were gathered level by level, and
// 4.46 MB while every output built an AMR tree; the budget gives the reading
// without those (3.46 MB) 10% headroom, so one of them coming back fails it.
const phase2ByteBudget = 3_800_000

func TestPhase2ByteBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates bytes of its own")
	}
	cfg := campaignConfig(1)
	run := func() {
		if _, err := Phase2(cfg, [3]float64{0.5, 0.5, 0.5}, 2, ""); err != nil {
			t.Fatal(err)
		}
	}
	run() // derive the cosmology's constants outside the count
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one Phase2 allocated %d bytes", perRun)
	if perRun > phase2ByteBudget {
		t.Errorf("one Phase2 allocated %d bytes, budget %d", perRun, phase2ByteBudget)
	}
}
