package cosmo

import (
	"math"
	"sync"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := WMAP3().Validate(); err != nil {
		t.Errorf("WMAP3 should validate: %v", err)
	}
	bad := []Params{
		{OmegaM: 0, OmegaL: 1, H: 0.7, Sigma8: 0.8},
		{OmegaM: 0.3, OmegaB: 0.5, OmegaL: 0.7, H: 0.7, Sigma8: 0.8},
		{OmegaM: 0.3, OmegaL: 0.7, H: -1, Sigma8: 0.8},
		{OmegaM: 0.3, OmegaL: 0.7, H: 0.7, Sigma8: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestHubbleFlat(t *testing.T) {
	c := WMAP3()
	if math.Abs(c.E(1)-1) > 1e-12 {
		t.Errorf("E(1) = %g, want 1", c.E(1))
	}
	// Deep matter era: E(a) ≈ sqrt(ΩM/a³).
	a := 0.01
	want := math.Sqrt(c.OmegaM / (a * a * a))
	if math.Abs(c.E(a)-want)/want > 1e-3 {
		t.Errorf("E(%g) = %g, want ≈ %g", a, c.E(a), want)
	}
}

func TestOmegaMAt(t *testing.T) {
	c := WMAP3()
	if math.Abs(c.OmegaMAt(1)-c.OmegaM) > 1e-12 {
		t.Errorf("ΩM(1) = %g, want %g", c.OmegaMAt(1), c.OmegaM)
	}
	// Matter dominates early.
	if om := c.OmegaMAt(0.01); om < 0.99 {
		t.Errorf("ΩM(0.01) = %g, want ≈ 1", om)
	}
}

func TestEinsteinDeSitterLimits(t *testing.T) {
	eds := &Params{OmegaM: 1, OmegaL: 0, OmegaB: 0.05, H: 0.7, Sigma8: 0.8, Ns: 1}
	// Age(1) = 2/3 in Hubble units.
	if got := eds.Age(1); math.Abs(got-2.0/3) > 1e-3 {
		t.Errorf("EdS age = %g, want 2/3", got)
	}
	// Growth factor D(a) = a.
	for _, a := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := eds.GrowthFactor(a); math.Abs(got-a)/a > 1e-3 {
			t.Errorf("EdS D(%g) = %g, want %g", a, got, a)
		}
	}
	// Growth rate f = 1.
	if f := eds.GrowthRate(0.5); math.Abs(f-1) > 1e-6 {
		t.Errorf("EdS f = %g, want 1", f)
	}
}

func TestGrowthFactorMonotonic(t *testing.T) {
	c := WMAP3()
	if d1 := c.GrowthFactor(1); math.Abs(d1-1) > 1e-9 {
		t.Fatalf("D(1) = %g, want 1", d1)
	}
	prev := 0.0
	for a := 0.05; a <= 1.0; a += 0.05 {
		d := c.GrowthFactor(a)
		if d <= prev {
			t.Fatalf("D not monotonic at a=%g: %g <= %g", a, d, prev)
		}
		prev = d
	}
	// ΛCDM growth is suppressed relative to EdS: D(0.5) < 0.5... actually
	// D(a) > a for normalised ΛCDM growth (growth slows at late times, so
	// early values are relatively larger).
	if d := c.GrowthFactor(0.5); d <= 0.5 {
		t.Errorf("ΛCDM D(0.5) = %g, expected > 0.5", d)
	}
}

func TestAgeIncreasing(t *testing.T) {
	c := WMAP3()
	prev := -1.0
	for a := 0.1; a <= 1.0; a += 0.1 {
		age := c.Age(a)
		if age <= prev {
			t.Fatalf("Age not increasing at a=%g", a)
		}
		prev = age
	}
	// WMAP3 age of universe ≈ 13.7 Gyr.
	age := c.AgeGyr(1)
	if age < 13 || age > 14.5 {
		t.Errorf("age of universe = %g Gyr, want ≈ 13.7", age)
	}
}

func TestTransferLimits(t *testing.T) {
	c := WMAP3()
	if tk := c.Transfer(1e-6); math.Abs(tk-1) > 0.01 {
		t.Errorf("T(k→0) = %g, want 1", tk)
	}
	// Monotonically decreasing.
	prev := 2.0
	for _, k := range []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10} {
		tk := c.Transfer(k)
		if tk >= prev {
			t.Errorf("T(%g) = %g not decreasing", k, tk)
		}
		prev = tk
	}
}

func TestSigma8Normalisation(t *testing.T) {
	c := WMAP3()
	c.Power(0.1) // force amplitude calibration
	got := c.Sigma(8)
	if math.Abs(got-c.Sigma8)/c.Sigma8 > 1e-3 {
		t.Errorf("Sigma(8) = %g, want %g", got, c.Sigma8)
	}
}

func TestPowerSpectrumShape(t *testing.T) {
	c := WMAP3()
	// P(k) rises at low k, turns over, falls at high k.
	pLow, pPeak, pHigh := c.Power(0.001), c.Power(0.02), c.Power(5)
	if pPeak <= pLow || pPeak <= pHigh {
		t.Errorf("P(k) not peaked: P(0.001)=%g P(0.02)=%g P(5)=%g", pLow, pPeak, pHigh)
	}
	if c.Power(0) != 0 || c.Power(-1) != 0 {
		t.Error("P(k<=0) should be 0")
	}
}

func TestPowerAtGrowsWithA(t *testing.T) {
	c := WMAP3()
	k := 0.1
	if !(c.PowerAt(k, 0.3) < c.PowerAt(k, 0.7) && c.PowerAt(k, 0.7) < c.PowerAt(k, 1.0)) {
		t.Error("P(k,a) should grow with a")
	}
	if math.Abs(c.PowerAt(k, 1)-c.Power(k)) > 1e-9*c.Power(k) {
		t.Error("P(k,1) should equal P(k)")
	}
}

func TestParticleMass(t *testing.T) {
	c := WMAP3()
	// The full box mass must be ΩM·ρc·V regardless of sampling.
	box := 100.0
	for _, n := range []int{16, 32, 64} {
		total := c.ParticleMass(box, n) * float64(n*n*n)
		want := c.OmegaM * RhoCritMsunMpc3 * box * box * box
		if math.Abs(total-want)/want > 1e-12 {
			t.Errorf("n=%d: total mass %g, want %g", n, total, want)
		}
	}
	// 128³ in 100 Mpc/h: ~3e10 M☉/h per particle, the paper's survey scale.
	m := c.ParticleMass(100, 128)
	if m < 1e9 || m > 1e11 {
		t.Errorf("particle mass %g outside plausible range", m)
	}
}

func TestRedshiftConversions(t *testing.T) {
	if a := ExpansionOfRedshift(0); a != 1 {
		t.Errorf("a(z=0) = %g", a)
	}
	if z := RedshiftOfExpansion(0.5); math.Abs(z-1) > 1e-12 {
		t.Errorf("z(a=0.5) = %g, want 1", z)
	}
	for _, z := range []float64{0, 0.5, 3, 49} {
		if got := RedshiftOfExpansion(ExpansionOfRedshift(z)); math.Abs(got-z) > 1e-9 {
			t.Errorf("round trip z=%g gives %g", z, got)
		}
	}
}

func TestGrowthRateRange(t *testing.T) {
	c := WMAP3()
	for a := 0.1; a <= 1.0; a += 0.1 {
		f := c.GrowthRate(a)
		if f <= 0 || f > 1.01 {
			t.Errorf("f(%g) = %g outside (0,1]", a, f)
		}
	}
	// f decreases toward late times in ΛCDM.
	if !(c.GrowthRate(0.2) > c.GrowthRate(1.0)) {
		t.Error("f should decrease with a in ΛCDM")
	}
}

func TestHubbleTimeGyr(t *testing.T) {
	c := WMAP3()
	want := 9.77792 / 0.73
	if math.Abs(c.HubbleTimeGyr()-want) > 1e-9 {
		t.Errorf("HubbleTimeGyr = %g, want %g", c.HubbleTimeGyr(), want)
	}
}

func TestPowerAtConcurrentFirstUse(t *testing.T) {
	// The amplitude, shape parameter and D(1) are derived on first use. Eight
	// goroutines racing for that first use on one shared Params must all see
	// the finished constants: the value a lone caller gets, bit for bit.
	serial := WMAP3().PowerAt(0.1, 0.5)
	for round := 0; round < 20; round++ {
		shared := WMAP3()
		var wg sync.WaitGroup
		got := make([]float64, 8)
		start := make(chan struct{})
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = shared.PowerAt(0.1, 0.5)
			}()
		}
		close(start)
		wg.Wait()
		for g, v := range got {
			if v != serial {
				t.Fatalf("round %d goroutine %d: PowerAt = %g, serial value %g", round, g, v, serial)
			}
		}
	}
}

func TestSigmaNeedsNoWarmUp(t *testing.T) {
	// Sigma on a fresh Params is normalised without a prior Power call.
	c := WMAP3()
	if got := c.Sigma(8); math.Abs(got-c.Sigma8)/c.Sigma8 > 1e-3 {
		t.Errorf("Sigma(8) on a fresh Params = %g, want %g", got, c.Sigma8)
	}
}

func TestCopyBeforeUseIsIndependent(t *testing.T) {
	// ramses.ConfigFromNamelist copies a fresh Params and edits the copy; the
	// copy must calibrate to its own Sigma8, not inherit anything.
	base := WMAP3()
	c := *base
	c.Sigma8 = 2 * base.Sigma8
	if ratio := c.Power(0.1) / base.Power(0.1); math.Abs(ratio-4) > 1e-9 {
		t.Errorf("doubling Sigma8 on a copy scaled P(k) by %g, want 4", ratio)
	}
}

// PowerAt returns the linear power spectrum at expansion factor a,
// P(k, a) = D(a)² P(k, z=0).
func (p *Params) PowerAt(k, a float64) float64 {
	d := p.GrowthFactor(a)
	return d * d * p.Power(k)
}

// Sigma returns the rms linear mass fluctuation in top-hat spheres of
// comoving radius r (Mpc/h) at z = 0:
// σ²(r) = 1/(2π²) ∫ k² P(k) W²(kr) dk, W(x) = 3(sin x − x cos x)/x³.
func (p *Params) Sigma(r float64) float64 { return p.sigma(r, p.amplitude()) }

// ExpansionOfRedshift converts redshift z to expansion factor a = 1/(1+z).
func ExpansionOfRedshift(z float64) float64 { return 1 / (1 + z) }

// RedshiftOfExpansion converts expansion factor a to redshift z = 1/a - 1.
func RedshiftOfExpansion(a float64) float64 { return 1/a - 1 }
