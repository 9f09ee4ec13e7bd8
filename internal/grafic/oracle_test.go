package grafic

import (
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/fft"
)

// referenceDeltaFromNoise is deltaFromNoise as it stood before the sign
// images shared one P(k): the power spectrum evaluated at every mode.
func referenceDeltaFromNoise(g *Generator, noise *fft.Grid3, boxSize, a, kMin float64) (*fft.Grid3, error) {
	n := noise.N
	delta, err := fft.NewGrid3(n)
	if err != nil {
		return nil, err
	}
	copy(delta.Data, noise.Data)
	if err := fft.Forward3(delta); err != nil {
		return nil, err
	}
	vol := boxSize * boxSize * boxSize
	norm := float64(n*n*n) / vol
	growth := g.Cosmo.GrowthFactor(a)
	growth2 := growth * growth
	for iz := 0; iz < n; iz++ {
		kz := fft.WaveNumber(iz, n, boxSize)
		for iy := 0; iy < n; iy++ {
			ky := fft.WaveNumber(iy, n, boxSize)
			for ix := 0; ix < n; ix++ {
				kx := fft.WaveNumber(ix, n, boxSize)
				k := math.Sqrt(kx*kx + ky*ky + kz*kz)
				idx := (iz*n+iy)*n + ix
				if k == 0 || k < kMin {
					delta.Data[idx] = 0
					continue
				}
				amp := math.Sqrt(growth2 * g.Cosmo.Power(k) * norm)
				delta.Data[idx] *= complex(amp, 0)
			}
		}
	}
	if err := fft.Inverse3(delta); err != nil {
		return nil, err
	}
	return delta, nil
}

func TestDeltaFromNoiseMatchesReferenceBitForBit(t *testing.T) {
	g, err := New(cosmo.WMAP3(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 32; n *= 2 {
		noise, err := g.WhiteNoise(n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, kMin := range []float64{0, 0.2, 1.3} {
			got, err := g.deltaFromNoise(noise, 50, 0.1, kMin)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceDeltaFromNoise(g, noise, 50, 0.1, kMin)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float64bits(real(got.Data[i])) != math.Float64bits(real(want.Data[i])) ||
					math.Float64bits(imag(got.Data[i])) != math.Float64bits(imag(want.Data[i])) {
					t.Fatalf("n=%d kMin=%g cell %d: %v, reference %v", n, kMin, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
