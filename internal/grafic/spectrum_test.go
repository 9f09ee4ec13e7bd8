package grafic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/fft"
)

func TestMeasurePowerRecoversInputSpectrum(t *testing.T) {
	// The loop-closure test of the IC generator: the spectrum measured from
	// a realisation must match the cosmology's P(k,a) within the per-shell
	// sample variance (≈ P·√(2/modes)).
	c := cosmo.WMAP3()
	g, err := New(c, 12345)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	const box = 200.0
	const a = 0.5
	delta, err := g.DeltaField(n, box, a)
	if err != nil {
		t.Fatal(err)
	}
	k, pk, modes, err := MeasurePower(delta, box, 6)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for b := range k {
		if modes[b] < 50 {
			continue // too noisy to test
		}
		d := c.GrowthFactor(a)
		want := d * d * c.Power(k[b])
		sigma := want * math.Sqrt(2/float64(modes[b]))
		// Allow 4σ plus a 10% binning/aliasing allowance.
		tol := 4*sigma + 0.1*want
		if math.Abs(pk[b]-want) > tol {
			t.Errorf("bin k=%.3f: measured %.4g, want %.4g ± %.2g (%d modes)",
				k[b], pk[b], want, tol, modes[b])
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d usable bins; measurement too coarse", checked)
	}
}

func TestMeasurePowerGrowsWithA(t *testing.T) {
	c := cosmo.WMAP3()
	g, _ := New(c, 7)
	early, err := g.DeltaField(16, 100, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	late, err := g.DeltaField(16, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	_, pe, _, err := MeasurePower(early, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, pl, _, err := MeasurePower(late, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	growth2 := math.Pow(c.GrowthFactor(0.8)/c.GrowthFactor(0.2), 2)
	for b := range pe {
		if pe[b] == 0 {
			continue
		}
		ratio := pl[b] / pe[b]
		// Same realisation, same seed: the ratio is exactly D²(0.8)/D²(0.2).
		if math.Abs(ratio-growth2)/growth2 > 1e-6 {
			t.Errorf("bin %d: power ratio %g, want exactly %g", b, ratio, growth2)
		}
	}
}

func TestMeasurePowerWhiteNoiseIsFlat(t *testing.T) {
	// White noise has P(k) = V/N³ independent of k.
	c := cosmo.WMAP3()
	g, _ := New(c, 99)
	noise, err := g.WhiteNoise(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	const box = 100.0
	k, pk, modes, err := MeasurePower(noise, box, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := box * box * box / float64(32*32*32)
	for b := range k {
		if modes[b] < 100 {
			continue
		}
		sigma := want * math.Sqrt(2/float64(modes[b]))
		if math.Abs(pk[b]-want) > 5*sigma {
			t.Errorf("white-noise bin k=%.3f: %g, want %g ± %g", k[b], pk[b], want, 5*sigma)
		}
	}
}

func TestMeasurePowerValidation(t *testing.T) {
	grid, _ := fft.NewGrid3(8)
	if _, _, _, err := MeasurePower(grid, 100, 0); err == nil {
		t.Error("nbins=0 should fail")
	}
}

// MeasurePower estimates the power spectrum of a real-space overdensity
// grid covering a box of boxSize Mpc/h: P(k) is averaged over spherical
// shells in k-space, inverting the convention used by deltaFromNoise
// (⟨|δ_k|²⟩ = P(k)·N³/V for the forward-DFT field). It returns the shell
// centres (h/Mpc), the measured P(k) in (Mpc/h)³ and the mode count per
// shell, which sets the sample variance of each estimate.
func MeasurePower(delta *fft.Grid3, boxSize float64, nbins int) (k []float64, pk []float64, modes []int, err error) {
	if nbins < 1 {
		return nil, nil, nil, fmt.Errorf("grafic: nbins must be >= 1, got %d", nbins)
	}
	n := delta.N
	work, err := fft.NewGrid3(n)
	if err != nil {
		return nil, nil, nil, err
	}
	copy(work.Data, delta.Data)
	if err := fft.Forward3(work); err != nil {
		return nil, nil, nil, err
	}
	kf := 2 * math.Pi / boxSize            // fundamental frequency
	kNyq := math.Pi * float64(n) / boxSize // Nyquist
	binW := (kNyq - kf) / float64(nbins)

	k = make([]float64, nbins)
	pk = make([]float64, nbins)
	modes = make([]int, nbins)
	for b := 0; b < nbins; b++ {
		k[b] = kf + (float64(b)+0.5)*binW
	}
	vol := boxSize * boxSize * boxSize
	norm := vol / (float64(n*n*n) * float64(n*n*n)) // |δ_k|² → P(k)

	for iz := 0; iz < n; iz++ {
		kz := fft.WaveNumber(iz, n, boxSize)
		for iy := 0; iy < n; iy++ {
			ky := fft.WaveNumber(iy, n, boxSize)
			for ix := 0; ix < n; ix++ {
				kx := fft.WaveNumber(ix, n, boxSize)
				kk := math.Sqrt(kx*kx + ky*ky + kz*kz)
				if kk < kf || kk >= kNyq {
					continue
				}
				b := int((kk - kf) / binW)
				if b < 0 || b >= nbins {
					continue
				}
				v := work.Data[(iz*n+iy)*n+ix]
				pk[b] += (real(v)*real(v) + imag(v)*imag(v)) * norm
				modes[b]++
			}
		}
	}
	for b := 0; b < nbins; b++ {
		if modes[b] > 0 {
			pk[b] /= float64(modes[b])
		}
	}
	return k, pk, modes, nil
}
