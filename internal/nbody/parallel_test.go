package nbody

import (
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/grafic"
	"repro/internal/hilbert"
	"repro/internal/particles"
)

func TestSplitByDomainPartition(t *testing.T) {
	gen, err := grafic.New(cosmo.WMAP3(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := gen.SingleLevel(8, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const order = 3
	domains, err := hilbert.Decompose(order, 4)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitByDomain(ics.Parts, domains, order)
	total := 0
	ids := make(map[int64]bool)
	for r, sub := range split {
		total += len(sub)
		for _, p := range sub {
			if ids[p.ID] {
				t.Fatalf("particle %d assigned twice", p.ID)
			}
			ids[p.ID] = true
			d := hilbert.CellIndex(p.Pos[0], p.Pos[1], p.Pos[2], order)
			if owner := hilbert.OwnerOf(domains, d); owner != r {
				t.Fatalf("particle %d on rank %d, owner %d", p.ID, r, owner)
			}
		}
	}
	if total != len(ics.Parts) {
		t.Fatalf("split lost particles: %d of %d", total, len(ics.Parts))
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	c := cosmo.WMAP3()
	const n = 8
	a0, a1 := 0.2, 0.3
	p := Params{Ng: n, Box: 100, Cosmo: c}

	gen, _ := grafic.New(c, 17)
	icsSerial, err := gen.SingleLevel(n, 100, a0)
	if err != nil {
		t.Fatal(err)
	}
	icsParallel := icsSerial.Parts.Clone()

	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(icsSerial.Parts, a0, a1, 4, nil); err != nil {
		t.Fatal(err)
	}
	serial := icsSerial.Parts
	serial.SortByID()

	parallel, err := SimulateParallel(4, p, icsParallel, a0, a1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("parallel run lost particles: %d of %d", len(parallel), len(serial))
	}
	var worst float64
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("ID mismatch at %d: %d vs %d", i, serial[i].ID, parallel[i].ID)
		}
		for d := 0; d < 3; d++ {
			diff := math.Abs(particles.PeriodicDelta(serial[i].Pos[d], parallel[i].Pos[d]))
			if diff > worst {
				worst = diff
			}
		}
	}
	// The decompositions sum densities in different orders, so tiny FP
	// divergence is expected; anything macroscopic is a logic bug.
	if worst > 1e-9 {
		t.Errorf("parallel diverges from serial by %g box units", worst)
	}
}

func TestParallelMassAndIDConservation(t *testing.T) {
	c := cosmo.WMAP3()
	const n = 8
	gen, _ := grafic.New(c, 23)
	ics, err := gen.SingleLevel(n, 100, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	before := ics.Parts.TotalMass()
	out, err := SimulateParallel(3, Params{Ng: n, Box: 100, Cosmo: c}, ics.Parts, 0.15, 0.35, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("parallel output invalid: %v", err)
	}
	if after := out.TotalMass(); math.Abs(after-before)/before > 1e-12 {
		t.Errorf("mass changed: %g -> %g", before, after)
	}
}

func TestRunRankValidation(t *testing.T) {
	if _, err := SimulateParallel(2, Params{Ng: 8, Box: 100, Cosmo: cosmo.WMAP3()}, nil, 0.5, 0.4, 3); err == nil {
		t.Error("expected error for a1 < a0")
	}
	if _, err := SimulateParallel(2, Params{Ng: 8, Box: 100, Cosmo: cosmo.WMAP3()}, nil, 0.2, 0.4, 0); err == nil {
		t.Error("expected error for 0 steps")
	}
}

func TestCostModelScaling(t *testing.T) {
	base := CostModel(64, 64*64*64, 10)
	if base <= 0 {
		t.Fatal("cost must be positive")
	}
	if CostModel(64, 64*64*64, 20) != 2*base {
		t.Error("cost must be linear in steps")
	}
	if CostModel(128, 64*64*64, 10) <= base {
		t.Error("bigger mesh must cost more")
	}
	if CostModel(64, 2*64*64*64, 10) <= base {
		t.Error("more particles must cost more")
	}
}

// CostModel estimates the floating-point work of a PM simulation, meant for
// the platform simulator to convert problem sizes into wall-clock times on
// modelled CPUs. The two terms are the per-step FFT solve (two solves of
// 3·5·N³·log2(N³) flops each per KDK step) and the per-particle work
// (deposit + 2 kicks + drift ≈ 250 flops per particle per step).
func CostModel(ng, nparts, nsteps int) float64 {
	n3 := float64(ng) * float64(ng) * float64(ng)
	fftFlops := 2 * 3 * 5 * n3 * math.Log2(n3)
	partFlops := 250 * float64(nparts)
	return float64(nsteps) * (fftFlops + partFlops)
}
