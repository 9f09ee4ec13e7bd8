package diet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rpc"
)

// Cost budgets of an idle platform, asserted as counts: what a long-lived
// daemon pays on every GC cycle and in every goroutine dump, whatever the
// host's speed.

// paperShapedSpec is an in-process platform of the paper's shape: one MA, six
// LAs and eleven SeDs of capacity 1.
func paperShapedSpec(ma string) DeploymentSpec {
	spec := DeploymentSpec{MAName: ma, Local: true}
	for i := 0; i < 6; i++ {
		spec.LAs = append(spec.LAs, fmt.Sprintf("%s-LA%d", ma, i))
	}
	for i := 0; i < 11; i++ {
		spec.SeDs = append(spec.SeDs, SeDSpec{
			Name: fmt.Sprintf("%s-SeD%d", ma, i), Parent: spec.LAs[i%6], Capacity: 1, PowerGFlops: 4,
			Services: []ServiceSpec{sleepService("double", 0, nil)},
		})
	}
	return spec
}

// heapAfterGC is the live heap once two collections have run, so what is
// counted is what is retained.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdlePlatformGoroutineBudget counts the goroutines an idle 11-SeD
// platform adds. Measured at the commit before SeD admission became one FIFO
// under statMu: 11, one dispatcher goroutine per SeD. A SeD starts no
// goroutine of its own any more, so the budget is 11 fewer.
func TestIdlePlatformGoroutineBudget(t *testing.T) {
	const before = 11 // goroutines added by the platform with one dispatcher per SeD
	rpc.ResetLocal()
	base := runtime.NumGoroutine()
	d := newTestDeployment(t, paperShapedSpec("MA-budget"))
	if len(d.SeDs) != 11 {
		t.Fatalf("deployed %d SeDs, want 11", len(d.SeDs))
	}
	if added := runtime.NumGoroutine() - base; added > before-11 {
		t.Fatalf("an idle 11-SeD platform adds %d goroutines, budget %d", added, before-11)
	}
}

// TestIdleSeDHeapBudget bounds what one started, idle SeD keeps on the heap.
// With a 16384-place channel of pointers as its queue it retained 134 KB at
// the commit before the FIFO under statMu, all of it scanned by every GC
// cycle; a queue that grows only when used leaves about 3 KB.
func TestIdleSeDHeapBudget(t *testing.T) {
	const budget = 32 << 10
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	namingAddr := startLocalNaming(t, "naming-heap-budget")
	spec := sleepService("double", 0, nil)

	base := heapAfterGC()
	s, err := NewSeD(SeDConfig{Name: "SeD-heap-budget", Naming: namingAddr, Local: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddService(spec.Desc, spec.Solve); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	retained := int64(heapAfterGC()) - int64(base)
	s.Close()
	if retained >= budget {
		t.Fatalf("one idle SeD retains %d B of heap, budget %d", retained, budget)
	}
}
