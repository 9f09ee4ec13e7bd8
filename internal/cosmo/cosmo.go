// Package cosmo holds the background cosmology the whole pipeline shares:
// Friedmann expansion history, linear growth of structure, and the CDM matter
// power spectrum used by the GRAFIC initial-conditions generator.
//
// Conventions: distances are comoving Mpc/h, wavenumbers h/Mpc, and the
// Hubble constant enters only through the dimensionless h. Times are in units
// of the Hubble time 1/H0 unless stated otherwise.
package cosmo

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Params describes a flat-ish FLRW cosmology plus the primordial spectrum.
type Params struct {
	OmegaM float64 // total matter density today, in units of critical
	OmegaL float64 // cosmological constant density today
	OmegaB float64 // baryon density today (enters the transfer function)
	H      float64 // dimensionless Hubble constant, H0 = 100 h km/s/Mpc
	Sigma8 float64 // rms linear fluctuation in 8 Mpc/h spheres at z=0
	Ns     float64 // primordial spectral index

	// Constants derived from the fields above, each computed on first use and
	// published as its float64 bits through sync/atomic (0 = not computed
	// yet). Goroutines that find one missing all derive the same value, so
	// their stores agree. These are plain words, not sync.Once or
	// atomic.Uint64, because callers copy a Params to vary it
	// (ramses.ConfigFromNamelist) and go vet's copylocks rejects copying
	// either. The exported fields must not change once a method has run.
	ampl    uint64 // P(k) amplitude fixed by Sigma8
	gamma   uint64 // shape parameter of the transfer function
	growth1 uint64 // unnormalised growth factor today
}

// constant returns the derived constant held in word, which must be one of
// p's, deriving and publishing it on first use.
func (p *Params) constant(word *uint64, derive func(*Params) float64) float64 {
	if bits := atomic.LoadUint64(word); bits != 0 {
		return math.Float64frombits(bits)
	}
	v := derive(p)
	atomic.StoreUint64(word, math.Float64bits(v))
	return v
}

// WMAP3 returns the WMAP 3-year parameters, the data the paper's GRAFIC
// initial conditions were consistent with ("current observational data
// obtained by the WMAP satellite").
func WMAP3() *Params {
	return &Params{OmegaM: 0.24, OmegaL: 0.76, OmegaB: 0.042, H: 0.73, Sigma8: 0.74, Ns: 0.95}
}

// Validate checks the parameters are physically sensible.
func (p *Params) Validate() error {
	switch {
	case p.OmegaM <= 0:
		return fmt.Errorf("cosmo: OmegaM must be positive, got %g", p.OmegaM)
	case p.OmegaB < 0 || p.OmegaB > p.OmegaM:
		return fmt.Errorf("cosmo: OmegaB %g must be in [0, OmegaM=%g]", p.OmegaB, p.OmegaM)
	case p.H <= 0:
		return fmt.Errorf("cosmo: h must be positive, got %g", p.H)
	case p.Sigma8 <= 0:
		return fmt.Errorf("cosmo: sigma8 must be positive, got %g", p.Sigma8)
	}
	return nil
}

// OmegaK returns the curvature density 1 - OmegaM - OmegaL.
func (p *Params) OmegaK() float64 { return 1 - p.OmegaM - p.OmegaL }

// E returns H(a)/H0 for expansion factor a.
func (p *Params) E(a float64) float64 {
	return math.Sqrt(p.OmegaM/(a*a*a) + p.OmegaK()/(a*a) + p.OmegaL)
}

// OmegaMAt returns the matter density parameter at expansion factor a.
func (p *Params) OmegaMAt(a float64) float64 {
	e := p.E(a)
	return p.OmegaM / (a * a * a * e * e)
}

// Age returns the cosmic time at expansion factor a in units of 1/H0,
// t(a) = ∫₀ᵃ da' / (a' E(a')).
func (p *Params) Age(a float64) float64 {
	if a <= 0 {
		return 0
	}
	return simpson(func(x float64) float64 {
		if x == 0 {
			return 0
		}
		return 1 / (x * p.E(x))
	}, 0, a, 2048)
}

// GrowthFactor returns the linear growth factor D(a), normalised so that
// D(1) = 1. It uses the standard integral solution
// D ∝ (5 ΩM/2) E(a) ∫₀ᵃ da' / (a' E(a'))³.
func (p *Params) GrowthFactor(a float64) float64 {
	if a <= 0 {
		return 0
	}
	growth1 := p.constant(&p.growth1, func(p *Params) float64 { return p.growthUnnormalised(1) })
	return p.growthUnnormalised(a) / growth1
}

func (p *Params) growthUnnormalised(a float64) float64 {
	integral := simpson(func(x float64) float64 {
		if x == 0 {
			return 0
		}
		e := x * p.E(x)
		return 1 / (e * e * e)
	}, 0, a, 2048)
	return 2.5 * p.OmegaM * p.E(a) * integral
}

// GrowthRate returns f = dlnD/dlna at expansion factor a, using the accurate
// ΩM(a)^0.55 approximation (Linder 2005).
func (p *Params) GrowthRate(a float64) float64 {
	return math.Pow(p.OmegaMAt(a), 0.55)
}

// Transfer returns the BBKS (Bardeen et al. 1986) CDM transfer function at
// wavenumber k in h/Mpc, with the Sugiyama (1995) baryon shape correction —
// the fitting form GRAFIC-era codes used.
func (p *Params) Transfer(k float64) float64 {
	if k <= 0 {
		return 1
	}
	gamma := p.constant(&p.gamma, func(p *Params) float64 {
		return p.OmegaM * p.H * math.Exp(-p.OmegaB*(1+math.Sqrt(2*p.H)/p.OmegaM))
	})
	q := k / gamma
	t := math.Log(1+2.34*q) / (2.34 * q)
	poly := 1 + 3.89*q + math.Pow(16.1*q, 2) + math.Pow(5.46*q, 3) + math.Pow(6.71*q, 4)
	return t * math.Pow(poly, -0.25)
}

// Power returns the z=0 linear matter power spectrum P(k) in (Mpc/h)³ for k
// in h/Mpc, normalised so that Sigma(8 Mpc/h) = Sigma8.
func (p *Params) Power(k float64) float64 {
	if k <= 0 {
		return 0
	}
	t := p.Transfer(k)
	return p.amplitude() * math.Pow(k, p.Ns) * t * t
}

// amplitude returns the P(k) amplitude that makes Sigma(8) equal Sigma8.
func (p *Params) amplitude() float64 {
	return p.constant(&p.ampl, func(p *Params) float64 {
		s8 := p.sigma(8, 1)
		return (p.Sigma8 / s8) * (p.Sigma8 / s8)
	})
}

// sigma is Sigma for a spectrum of amplitude ampl.
func (p *Params) sigma(r, ampl float64) float64 {
	integrand := func(lnk float64) float64 {
		k := math.Exp(lnk)
		x := k * r
		var w float64
		if x < 1e-4 {
			w = 1 - x*x/10 // series expansion avoids 0/0
		} else {
			w = 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
		}
		t := p.Transfer(k)
		pk := ampl * (math.Pow(k, p.Ns) * t * t)
		return k * k * k * pk * w * w // extra k from d(lnk) measure
	}
	integral := simpson(integrand, math.Log(1e-5), math.Log(1e3), 4096)
	return math.Sqrt(integral / (2 * math.Pi * math.Pi))
}

// RhoCritMsunMpc3 is the critical density in h² M☉/Mpc³.
const RhoCritMsunMpc3 = 2.77536627e11

// ParticleMass returns the dark-matter particle mass in M☉/h for a box of
// side boxSize Mpc/h sampled with n³ particles.
func (p *Params) ParticleMass(boxSize float64, n int) float64 {
	vol := boxSize * boxSize * boxSize
	return p.OmegaM * RhoCritMsunMpc3 * vol / float64(n*n*n)
}

// HubbleTimeGyr returns 1/H0 in gigayears.
func (p *Params) HubbleTimeGyr() float64 {
	// 1/H0 = 9.7779 h⁻¹ Gyr.
	return 9.77792 / p.H
}

// AgeGyr returns the cosmic time at expansion factor a in gigayears.
func (p *Params) AgeGyr(a float64) float64 { return p.Age(a) * p.HubbleTimeGyr() }

// simpson integrates f over [a, b] with n (even) composite Simpson panels.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
