package fft

import (
	"math"
	"math/rand"
	"testing"
)

// referenceTransform is the 1-D transform as it stood before plans: the
// twiddle table looked up per butterfly level of every line, and Inverse's
// 1/n applied after the line.
func referenceTransform(data []complex128, dir int) {
	n := len(data)
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	for level, size := 1, 2; size <= n; level, size = level+1, size<<1 {
		half := size / 2
		w := twiddle(level, dir)
		for start := 0; start < n; start += size {
			lo, hi := data[start:start+half], data[start+half:start+size]
			for k, wk := range w {
				a := lo[k]
				b := hi[k] * wk
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	if dir == inverse {
		scale := complex(1/float64(n), 0)
		for i := range data {
			data[i] *= scale
		}
	}
}

// referenceTransform3 is the 3-D transform as it stood before the batched
// passes: each y and z line copied into a scratch line, transformed on its
// own and copied back.
func referenceTransform3(g *Grid3, dir int) {
	n := g.N
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			referenceTransform(g.Data[(iz*n+iy)*n:(iz*n+iy)*n+n], dir)
		}
	}
	line := make([]complex128, n)
	for iz := 0; iz < n; iz++ {
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < n; iy++ {
				line[iy] = g.Data[(iz*n+iy)*n+ix]
			}
			referenceTransform(line, dir)
			for iy := 0; iy < n; iy++ {
				g.Data[(iz*n+iy)*n+ix] = line[iy]
			}
		}
	}
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			for iz := 0; iz < n; iz++ {
				line[iz] = g.Data[(iz*n+iy)*n+ix]
			}
			referenceTransform(line, dir)
			for iz := 0; iz < n; iz++ {
				g.Data[(iz*n+iy)*n+ix] = line[iz]
			}
		}
	}
}

func sameComplexBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func TestTransformsMatchReferenceBitForBit(t *testing.T) {
	// Every field downstream is pinned to the bit, so the batched passes
	// must round exactly as the per-line transform they replaced.
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 32; n *= 2 {
		for _, dir := range []int{forward, inverse} {
			g, err := NewGrid3(n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range g.Data {
				g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := &Grid3{N: n, Data: append([]complex128(nil), g.Data...)}
			line := append([]complex128(nil), g.Data[:n]...)
			wantLine := append([]complex128(nil), line...)

			run, run1 := Forward3, Forward
			if dir == inverse {
				run, run1 = Inverse3, Inverse
			}
			if err := run(g); err != nil {
				t.Fatal(err)
			}
			referenceTransform3(want, dir)
			for i := range g.Data {
				if !sameComplexBits(g.Data[i], want.Data[i]) {
					t.Fatalf("n=%d direction %d cell %d: %v, reference %v", n, dir, i, g.Data[i], want.Data[i])
				}
			}
			if err := run1(line); err != nil {
				t.Fatal(err)
			}
			referenceTransform(wantLine, dir)
			for i := range line {
				if !sameComplexBits(line[i], wantLine[i]) {
					t.Fatalf("n=%d direction %d point %d of a line: %v, reference %v", n, dir, i, line[i], wantLine[i])
				}
			}
		}
	}
}
