package cosmo

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// forget drops the process's last derived constants, so the next use of a
// Params that has none of its own derives them afresh.
func forget() { last.Store(nil) }

// probeKs are the wavenumbers the memo tests read P(k) and T(k) at.
var probeKs = []float64{1e-4, 0.01, 0.1, 1, 10, 300}

// reading is what p reads at probeKs: P(k), then T(k), then D(0.5).
func reading(p *Params) []float64 {
	var out []float64
	for _, k := range probeKs {
		out = append(out, p.Power(k))
	}
	for _, k := range probeKs {
		out = append(out, p.Transfer(k))
	}
	return append(out, p.GrowthFactor(0.5))
}

// sameBits fails unless got and want hold the same values, bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: reading %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestMemoSameBitsForCopies(t *testing.T) {
	// The original, a copy made before its first use and a copy made after
	// it read the same spectrum, whichever derived the constants.
	forget()
	orig := WMAP3()
	fresh := *orig
	orig.Power(0.1)
	used := *orig
	got := [][]float64{reading(orig), reading(&fresh), reading(&used)}
	forget()
	want := reading(WMAP3())
	for i, name := range []string{"original", "fresh copy", "used copy"} {
		sameBits(t, name, got[i], want)
	}
}

func TestMemoChangedFieldOnUsedCopy(t *testing.T) {
	// A copy of a used Params with one field changed reads its own
	// cosmology's bits, the ones a never-used Params with the same fields
	// derives from nothing, not the constants the copy was made with.
	base := WMAP3()
	base.Power(0.1)
	fields := []struct {
		name string
		at   func(*Params) *float64
	}{
		{"OmegaM", func(p *Params) *float64 { return &p.OmegaM }},
		{"OmegaL", func(p *Params) *float64 { return &p.OmegaL }},
		{"OmegaB", func(p *Params) *float64 { return &p.OmegaB }},
		{"H", func(p *Params) *float64 { return &p.H }},
		{"Sigma8", func(p *Params) *float64 { return &p.Sigma8 }},
		{"Ns", func(p *Params) *float64 { return &p.Ns }},
	}
	for _, f := range fields {
		c := *base
		*f.at(&c) *= 1.05
		got := reading(&c)
		if slices.Equal(got, reading(base)) {
			t.Errorf("%s: changing it left every reading at the base cosmology's", f.name)
		}
		forget()
		never := Params{OmegaM: c.OmegaM, OmegaL: c.OmegaL, OmegaB: c.OmegaB, H: c.H, Sigma8: c.Sigma8, Ns: c.Ns}
		sameBits(t, f.name, got, reading(&never))
	}
}

func TestMemoConcurrentFirstUseAcrossCosmologies(t *testing.T) {
	// Distinct cosmologies race for their first use, so each one's
	// constants are derived and published while the others replace the
	// process's last ones; each goroutine must still read its own
	// cosmology's serial values.
	const n = 35
	cosmos := make([]Params, n)
	want := make([]float64, n)
	for i := range cosmos {
		cosmos[i] = *WMAP3()
		cosmos[i].Sigma8 = 0.6 + 0.01*float64(i)
		cosmos[i].OmegaM = 0.2 + 0.002*float64(i)
		forget()
		ref := cosmos[i]
		want[i] = ref.PowerAt(0.1, 0.5)
	}
	for round := 0; round < 5; round++ {
		forget()
		shared := make([]Params, n)
		copy(shared, cosmos)
		got := make([]float64, 2*n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = shared[g%n].PowerAt(0.1, 0.5)
			}()
		}
		close(start)
		wg.Wait()
		for g, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[g%n]) {
				t.Fatalf("round %d goroutine %d: PowerAt = %v, serial %v", round, g, v, want[g%n])
			}
		}
	}
}

func TestMemoDerivesOncePerParams(t *testing.T) {
	// Many cosmologies in use at once, taking turns: each Params keeps the
	// constants it derived, so after its first use no call runs the σ8
	// integral again, however often the process's last ones change hands.
	// A derivation allocates its constants, so a pass that allocates
	// nothing derived nothing.
	cosmos := make([]Params, 35)
	for i := range cosmos {
		cosmos[i] = *WMAP3()
		cosmos[i].Sigma8 = 0.6 + 0.01*float64(i)
		cosmos[i].Power(0.1)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range cosmos {
			cosmos[i].PowerAt(0.1, 0.5)
		}
	})
	if allocs != 0 {
		t.Errorf("a pass over %d used cosmologies made %.0f allocations, want 0 (a σ8 integral ran again)", len(cosmos), allocs)
	}
	// A fresh Params with the fields derived last reuses their constants.
	lastUsed := &cosmos[len(cosmos)-1]
	fresh := *lastUsed
	fresh.own = nil
	fresh.Power(0.1)
	if fresh.own != lastUsed.own {
		t.Error("a fresh Params of the last cosmology derived its constants again")
	}
}

// transferPow is Transfer as it stood with math.Pow for the integer powers.
func transferPow(k, gamma float64) float64 {
	q := k / gamma
	t := math.Log(1+2.34*q) / (2.34 * q)
	poly := 1 + 3.89*q + math.Pow(16.1*q, 2) + math.Pow(5.46*q, 3) + math.Pow(6.71*q, 4)
	return t * math.Pow(poly, -0.25)
}

func TestTransferPowersMatchMathPow(t *testing.T) {
	// The products stand in for math.Pow bit for bit wherever the powers stay
	// normal: q from 2e-9 to 5e8, log-uniform, plus every k the σ8 integral
	// and the campaign's IC meshes use.
	gamma := WMAP3().constants().gamma
	check := func(k float64) {
		if got, want := transfer(k, gamma), transferPow(k, gamma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("transfer(%v) = %v, math.Pow form %v", k, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	lo, hi := math.Log(2e-9*gamma), math.Log(5e8*gamma)
	for i := 0; i < 200000; i++ {
		check(math.Exp(lo + (hi-lo)*rng.Float64()))
	}
	for i := 0; i <= 4096; i++ {
		check(math.Exp(math.Log(1e-5) + float64(i)*(math.Log(1e3)-math.Log(1e-5))/4096))
	}
	for _, box := range []float64{100, 50, 25} {
		for n := 1; n <= 64; n++ {
			check(2 * math.Pi / box * math.Sqrt(float64(n)))
		}
	}
}

// BenchmarkPowerFreshParams is the first P(k) of a Params built afresh, as
// every RAMSES service request builds one from its namelist: the σ8
// normalisation of a cosmology the process has seen before.
func BenchmarkPowerFreshParams(b *testing.B) {
	WMAP3().Power(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WMAP3().Power(0.1)
	}
}
