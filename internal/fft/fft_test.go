package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardImpulse(t *testing.T) {
	// DFT of a unit impulse at 0 is flat ones.
	data := make([]complex128, 8)
	data[0] = 1
	if err := Forward(data); err != nil {
		t.Fatal(err)
	}
	for k, v := range data {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("X[%d] = %v, want 1", k, v)
		}
	}
}

func TestForwardConstant(t *testing.T) {
	// DFT of a constant is N at k=0, zero elsewhere.
	n := 16
	data := make([]complex128, n)
	for i := range data {
		data[i] = 2.5
	}
	if err := Forward(data); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(data[0]-complex(2.5*float64(n), 0)) > 1e-9 {
		t.Errorf("X[0] = %v, want %v", data[0], 2.5*float64(n))
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(data[k]) > 1e-9 {
			t.Errorf("X[%d] = %v, want 0", k, data[k])
		}
	}
}

func TestForwardSingleMode(t *testing.T) {
	// x[n] = exp(2πi m n/N) transforms to N at bin m.
	n, m := 32, 5
	data := make([]complex128, n)
	for i := range data {
		data[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(m*i)/float64(n)))
	}
	if err := Forward(data); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := complex(0, 0)
		if k == m {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(data[k]-want) > 1e-9 {
			t.Errorf("X[%d] = %v, want %v", k, data[k], want)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, szExp uint8) bool {
		n := 1 << (szExp%8 + 1) // 2..256
		rng := rand.New(rand.NewSource(seed))
		data := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = data[i]
		}
		if Forward(data) != nil || Inverse(data) != nil {
			return false
		}
		for i := range data {
			if cmplx.Abs(data[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	n := 64
	rng := rand.New(rand.NewSource(3))
	data := make([]complex128, n)
	var timeEnergy float64
	for i := range data {
		data[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(data[i]) * real(data[i])
	}
	if err := Forward(data); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range data {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-9*timeEnergy {
		t.Errorf("Parseval violated: time %g vs freq %g", timeEnergy, freqEnergy)
	}
}

func TestNonPowerOfTwoRejected(t *testing.T) {
	if err := Forward(make([]complex128, 12)); err == nil {
		t.Error("expected error for length 12")
	}
	if err := Inverse(make([]complex128, 0)); err == nil {
		t.Error("expected error for length 0")
	}
	if _, err := NewGrid3(6); err == nil {
		t.Error("expected error for grid side 6")
	}
}

func TestGrid3Indexing(t *testing.T) {
	g, err := NewGrid3(4)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(1, 2, 3, 7i)
	if g.At(1, 2, 3) != 7i {
		t.Errorf("At(1,2,3) = %v, want 7i", g.At(1, 2, 3))
	}
	if g.Data[(3*4+2)*4+1] != 7i {
		t.Error("Set wrote to the wrong flat index")
	}
}

func TestGrid3RoundTrip(t *testing.T) {
	g, _ := NewGrid3(8)
	rng := rand.New(rand.NewSource(11))
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
		orig[i] = g.Data[i]
	}
	if err := Forward3(g); err != nil {
		t.Fatal(err)
	}
	if err := Inverse3(g); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("cell %d: %v != %v", i, g.Data[i], orig[i])
		}
	}
}

func TestGrid3PlaneWave(t *testing.T) {
	// A plane wave along z lands all its power in the (0,0,mz) bin.
	n, mz := 8, 3
	g, _ := NewGrid3(n)
	for iz := 0; iz < n; iz++ {
		v := cmplx.Exp(complex(0, 2*math.Pi*float64(mz*iz)/float64(n)))
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				g.Set(ix, iy, iz, v)
			}
		}
	}
	if err := Forward3(g); err != nil {
		t.Fatal(err)
	}
	want := complex(float64(n*n*n), 0)
	if cmplx.Abs(g.At(0, 0, mz)-want) > 1e-6 {
		t.Errorf("bin (0,0,%d) = %v, want %v", mz, g.At(0, 0, mz), want)
	}
	var offPeak float64
	for i, v := range g.Data {
		if i != (mz*n+0)*n+0 {
			offPeak += cmplx.Abs(v)
		}
	}
	if offPeak > 1e-6 {
		t.Errorf("off-peak power %g, want ~0", offPeak)
	}
}

func TestFreqIndex(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {3, 8, 3}, {4, 8, -4}, {5, 8, -3}, {7, 8, -1},
	}
	for _, c := range cases {
		if got := FreqIndex(c.i, c.n); got != c.want {
			t.Errorf("FreqIndex(%d,%d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestWaveNumber(t *testing.T) {
	box := 100.0
	k1 := WaveNumber(1, 64, box)
	want := 2 * math.Pi / box
	if math.Abs(k1-want) > 1e-12 {
		t.Errorf("WaveNumber(1) = %g, want %g", k1, want)
	}
	if WaveNumber(0, 64, box) != 0 {
		t.Error("WaveNumber(0) should be 0")
	}
	if WaveNumber(63, 64, box) >= 0 {
		t.Error("WaveNumber(n-1) should be negative")
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 12, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

// Forward computes the in-place forward DFT of data (sign convention
// X[k] = sum_n x[n] exp(-2πi kn/N)). len(data) must be a power of two.
func Forward(data []complex128) error { return transform(data, forward) }

// Inverse computes the in-place inverse DFT including the 1/N normalisation,
// so Inverse(Forward(x)) == x up to rounding.
func Inverse(data []complex128) error { return transform(data, inverse) }

// transform runs the iterative Cooley–Tukey radix-2 algorithm in the given
// direction, followed by the inverse's normalisation.
func transform(data []complex128, dir int) error {
	n := len(data)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	var p plan
	p.init(n, dir)
	p.line(data)
	p.normalise(data)
	return nil
}
