package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// naiveDFT is the O(n²) definition of the forward transform of one line.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		for j, v := range x {
			out[k] += v * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
	}
	return out
}

// naiveDFT3 applies naiveDFT along x, then y, then z of an n³ array.
func naiveDFT3(data []complex128, n int) []complex128 {
	out := append([]complex128(nil), data...)
	line := make([]complex128, n)
	for _, stride := range [3]int{1, n, n * n} {
		for start := range out {
			if start/stride%n != 0 {
				continue // not the first cell of a line along this axis
			}
			for i := range line {
				line[i] = out[start+i*stride]
			}
			for i, v := range naiveDFT(line) {
				out[start+i*stride] = v
			}
		}
	}
	return out
}

func TestForward3MatchesNaiveDFT(t *testing.T) {
	const n = 8
	g, err := NewGrid3(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := append([]complex128(nil), g.Data...)
	want := naiveDFT3(orig, n)
	if err := Forward3(g); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-want[i]) > 1e-10 {
			t.Fatalf("mode %d: Forward3 gives %v, the DFT definition %v", i, g.Data[i], want[i])
		}
	}
	if err := Inverse3(g); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-12 {
			t.Fatalf("cell %d: Inverse3(Forward3(x)) = %v, x = %v", i, g.Data[i], orig[i])
		}
	}
}

func TestTransform3RejectsNonPowerOfTwoGrid(t *testing.T) {
	g := &Grid3{N: 6, Data: make([]complex128, 6*6*6)} // NewGrid3 would refuse to build it
	if err := Forward3(g); err == nil {
		t.Error("Forward3 accepted a grid of side 6")
	}
	if err := Inverse3(g); err == nil {
		t.Error("Inverse3 accepted a grid of side 6")
	}
}

func TestTwiddleTablesEqualTheRecurrence(t *testing.T) {
	// Every field the pipeline produces was rounded through factors
	// accumulated as w *= step; the tables must hold exactly those.
	for level := 1; level <= 10; level++ {
		size := 1 << level
		for dir, sign := range [2]float64{forward: -1, inverse: +1} {
			table := twiddle(level, dir)
			if len(table) != size/2 {
				t.Fatalf("size %d: table has %d factors, want %d", size, len(table), size/2)
			}
			step := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
			w := complex(1, 0)
			for k, got := range table {
				if got != w {
					t.Fatalf("size %d direction %d factor %d: table %v, recurrence %v", size, dir, k, got, w)
				}
				w *= step
			}
		}
	}
}

func TestConcurrentTransformsShareTables(t *testing.T) {
	// Eight goroutines transform lines of different lengths at once, each
	// length large enough that nothing else in this package's tests built its
	// tables first, so first use is contended. Run under -race.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		n := 1 << (11 + g%4) // two goroutines per length
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			orig := append([]complex128(nil), x...)
			<-start
			if err := Forward(x); err != nil {
				t.Error(err)
				return
			}
			if err := Inverse(x); err != nil {
				t.Error(err)
				return
			}
			for i := range x {
				if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
					t.Errorf("length %d cell %d: round trip gives %v, want %v", n, i, x[i], orig[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
