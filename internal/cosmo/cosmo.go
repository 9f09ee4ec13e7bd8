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
	"unsafe"
)

// Params describes a flat-ish FLRW cosmology plus the primordial spectrum.
type Params struct {
	OmegaM float64 // total matter density today, in units of critical
	OmegaL float64 // cosmological constant density today
	OmegaB float64 // baryon density today (enters the transfer function)
	H      float64 // dimensionless Hubble constant, H0 = 100 h km/s/Mpc
	Sigma8 float64 // rms linear fluctuation in 8 Mpc/h spheres at z=0
	Ns     float64 // primordial spectral index

	// own points at the derived constants this Params last used, read and
	// written through sync/atomic (nil = none yet). They are used only while
	// their key still equals the fields above, so a copy that changes a field
	// derives its own. It is an unsafe.Pointer, not an atomic.Pointer,
	// because callers copy a Params to vary it (ramses.ConfigFromNamelist)
	// and go vet's copylocks rejects copying an atomic.Pointer.
	own unsafe.Pointer // *derived
}

// derived holds the constants that are pure functions of a Params' six
// fields. A value is immutable once published.
type derived struct {
	key     [6]uint64 // the float64 bits of the fields, in declaration order
	ampl    float64   // P(k) amplitude fixed by Sigma8
	gamma   float64   // shape parameter of the transfer function
	growth1 float64   // unnormalised growth factor today
}

// last holds the constants of the cosmology derived last in the process, so
// a fresh Params with the same fields, one per service request, reuses them
// instead of running the σ8 integral again.
var last atomic.Pointer[derived]

func (p *Params) key() [6]uint64 {
	return [6]uint64{
		math.Float64bits(p.OmegaM), math.Float64bits(p.OmegaL), math.Float64bits(p.OmegaB),
		math.Float64bits(p.H), math.Float64bits(p.Sigma8), math.Float64bits(p.Ns),
	}
}

// constants returns the derived constants of p's current fields: p's own if
// its fields have not changed since, else the process's last ones if they
// match, else new ones, derived and published in both places. Goroutines
// that find them missing may all derive them; the values agree to the bit.
func (p *Params) constants() *derived {
	k := p.key()
	if d := (*derived)(atomic.LoadPointer(&p.own)); d != nil && d.key == k {
		return d
	}
	d := last.Load()
	if d == nil || d.key != k {
		d = &derived{key: k, growth1: p.growthUnnormalised(1)}
		d.gamma = p.OmegaM * p.H * math.Exp(-p.OmegaB*(1+math.Sqrt(2*p.H)/p.OmegaM))
		s8 := p.sigma(8, 1, d.gamma)
		d.ampl = (p.Sigma8 / s8) * (p.Sigma8 / s8)
		last.Store(d)
	}
	atomic.StorePointer(&p.own, unsafe.Pointer(d))
	return d
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
	return p.growthUnnormalised(a) / p.constants().growth1
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

// transfer returns the BBKS (Bardeen et al. 1986) CDM transfer function at
// wavenumber k > 0 in h/Mpc, with the Sugiyama (1995) baryon shape
// correction — the fitting form GRAFIC-era codes used — for the shape
// parameter gamma. The integer powers are the products math.Pow forms by
// repeated squaring, and the conversions keep the sum from fusing a product
// into it, so each term rounds as math.Pow's did.
func transfer(k, gamma float64) float64 {
	q := k / gamma
	t := math.Log(1+2.34*q) / (2.34 * q)
	a, b, c := 16.1*q, 5.46*q, 6.71*q
	poly := 1 + 3.89*q + float64(a*a) + float64(b*(b*b)) + float64((c*c)*(c*c))
	return t * math.Pow(poly, -0.25)
}

// Power returns the z=0 linear matter power spectrum P(k) in (Mpc/h)³ for k
// in h/Mpc, normalised so that Sigma(8 Mpc/h) = Sigma8.
func (p *Params) Power(k float64) float64 {
	if k <= 0 {
		return 0
	}
	d := p.constants()
	t := transfer(k, d.gamma)
	return d.ampl * math.Pow(k, p.Ns) * t * t
}

// sigma is Sigma for a spectrum of amplitude ampl and transfer-function
// shape gamma.
func (p *Params) sigma(r, ampl, gamma float64) float64 {
	integrand := func(lnk float64) float64 {
		k := math.Exp(lnk)
		x := k * r
		var w float64
		if x < 1e-4 {
			w = 1 - x*x/10 // series expansion avoids 0/0
		} else {
			w = 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
		}
		t := transfer(k, gamma)
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
