package nbody

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/hilbert"
	"repro/internal/mpich"
	"repro/internal/particles"
)

// The parallel driver mirrors the paper's RAMSES3d MPI code: the volume is
// partitioned among ranks along the Peano–Hilbert curve, each rank owns the
// particles in its curve segment, the mesh density is combined with an
// all-reduce (replicated mesh), every rank solves the identical FFT, and
// particles migrate between ranks after each drift.

// DefaultHilbertOrder is the curve order used for domain decomposition; 4³
// cells per axis (4096 curve cells) is ample for the rank counts used here.
const DefaultHilbertOrder uint = 4

// SplitByDomain partitions a particle set into per-rank subsets according to
// the Hilbert domains. Returned subsets are freshly allocated.
func SplitByDomain(parts particles.Set, domains []hilbert.Domain, order uint) []particles.Set {
	out := make([]particles.Set, len(domains))
	for i := range parts {
		p := parts[i]
		d := hilbert.CellIndex(p.Pos[0], p.Pos[1], p.Pos[2], order)
		r := hilbert.OwnerOf(domains, d)
		if r < 0 {
			r = len(domains) - 1 // empty trailing domains absorb nothing; clamp
		}
		out[r] = append(out[r], p)
	}
	return out
}

// rankStep advances one rank's local particles by one KDK step, cooperating
// with the other ranks for the global density and particle migration.
func rankStep(comm *mpich.Comm, s *Solver, local particles.Set, domains []hilbert.Domain, order uint, a, da float64) (particles.Set, error) {
	n := s.p.Ng

	// globalDelta keeps the stencils of the rank's own particles for the
	// closing kick, like the serial deposit.
	globalDelta := func(parts particles.Set) []float64 {
		raw := make([]float64, n*n*n)
		mass := s.depositStencils(raw, parts)
		raw = comm.AllReduce(mpich.OpSum, raw)
		mass = comm.AllReduceScalar(mpich.OpSum, mass)
		delta := slices.Clone(raw) // rank 0's result is shared with the other ranks
		normalise(delta, mass)
		return delta
	}

	// The solver is the rank's own, so a field cached at a was solved by
	// the previous step, whose closing kick left s.g for these particles.
	if s.accA != a {
		if err := s.Solve(globalDelta(local), a); err != nil {
			return nil, err
		}
		s.gatherAccel()
	}
	s.kickDrift(local, a, da)

	// Migrate particles that drifted out of this rank's Hilbert segment.
	send := make([]any, comm.Size())
	var keep particles.Set
	outgoing := make([]particles.Set, comm.Size())
	for i := range local {
		p := local[i]
		d := hilbert.CellIndex(p.Pos[0], p.Pos[1], p.Pos[2], order)
		r := hilbert.OwnerOf(domains, d)
		if r == comm.Rank() || r < 0 {
			keep = append(keep, p)
		} else {
			outgoing[r] = append(outgoing[r], p)
		}
	}
	for r := 0; r < comm.Size(); r++ {
		if r == comm.Rank() {
			send[r] = keep
		} else {
			send[r] = outgoing[r]
		}
	}
	recvd, err := comm.AllToAll(send)
	if err != nil {
		return nil, err
	}
	local = local[:0]
	for _, v := range recvd {
		local = append(local, v.(particles.Set)...)
	}

	aNew := a + da
	if err := s.Solve(globalDelta(local), aNew); err != nil {
		return nil, err
	}
	s.secondKick(local, a, aNew, da)
	return local, nil
}

// RunRank executes the SPMD loop for one rank from a0 to a1 in nsteps equal
// steps, starting from the rank's local particle subset, and returns the
// rank's final local particles.
func RunRank(comm *mpich.Comm, p Params, local particles.Set, domains []hilbert.Domain, order uint, a0, a1 float64, nsteps int) (particles.Set, error) {
	if a1 <= a0 {
		return nil, fmt.Errorf("nbody: a1 %g must exceed a0 %g", a1, a0)
	}
	if nsteps <= 0 {
		return nil, fmt.Errorf("nbody: nsteps must be positive, got %d", nsteps)
	}
	s, err := New(p)
	if err != nil {
		return nil, err
	}
	da := (a1 - a0) / float64(nsteps)
	a := a0
	for step := 0; step < nsteps; step++ {
		local, err = rankStep(comm, s, local, domains, order, a, da)
		if err != nil {
			return nil, fmt.Errorf("nbody: rank %d step %d: %w", comm.Rank(), step, err)
		}
		a += da
	}
	return local, nil
}

// SimulateParallel runs a complete parallel simulation on nranks in-process
// ranks and returns the merged final particle set (sorted by ID for
// determinism). It is the library-level equivalent of "mpirun -np N
// ramses3d" inside one machine.
func SimulateParallel(nranks int, p Params, parts particles.Set, a0, a1 float64, nsteps int) (particles.Set, error) {
	order := DefaultHilbertOrder
	for uint64(nranks) > uint64(1)<<(3*order) {
		order++ // enough curve cells for very wide runs
	}
	domains, err := hilbert.Decompose(order, nranks)
	if err != nil {
		return nil, err
	}
	split := SplitByDomain(parts, domains, order)

	results := make([]particles.Set, nranks)
	err = mpich.Run(nranks, func(comm *mpich.Comm) error {
		local, err := RunRank(comm, p, split[comm.Rank()], domains, order, a0, a1, nsteps)
		if err != nil {
			return err
		}
		results[comm.Rank()] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged particles.Set
	for _, r := range results {
		merged = append(merged, r...)
	}
	merged.SortByID()
	return merged, nil
}

// CostModel estimates the floating-point work of a PM simulation, used by
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
