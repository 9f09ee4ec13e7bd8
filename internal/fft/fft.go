// Package fft provides the fast Fourier transforms the cosmology stack needs:
// an iterative radix-2 complex transform plus 3-D transforms over contiguous
// arrays. GRAFIC uses it to filter white noise with the matter power
// spectrum; the particle-mesh solver uses it to solve the Poisson equation on
// the mesh. Only power-of-two lengths are supported, matching the 2^n grids
// used throughout RAMSES/GRAFIC.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place forward DFT of data (sign convention
// X[k] = sum_n x[n] exp(-2πi kn/N)). len(data) must be a power of two.
func Forward(data []complex128) error { return transform(data, forward) }

// Inverse computes the in-place inverse DFT including the 1/N normalisation,
// so Inverse(Forward(x)) == x up to rounding.
func Inverse(data []complex128) error { return transform(data, inverse) }

// The two directions of a transform, indexing twiddleTable.w.
const (
	forward = iota // exponent sign −1
	inverse        // exponent sign +1
)

// twiddleTable holds the factors the butterflies of one size multiply by:
// w[dir][k] = step^k for k < size/2, with step = exp(∓2πi/size). They are
// accumulated by repeated multiplication, not evaluated per k, because that
// is what transform did on every line before the tables existed and the
// rounding of every field downstream depends on it.
type twiddleTable struct {
	once sync.Once
	w    [2][]complex128
}

// twiddles is indexed by log2(size). A table is built the first time any
// transform reaches its size and is shared by all goroutines from then on;
// the tables up to size n hold n−1 factors per direction between them.
var twiddles [bits.UintSize]twiddleTable

// twiddle returns the factors for butterflies of size 1<<level.
func twiddle(level, dir int) []complex128 {
	t := &twiddles[level]
	t.once.Do(func() {
		size := 1 << level
		for d, sign := range [2]float64{forward: -1, inverse: +1} {
			step := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
			w := complex(1, 0)
			t.w[d] = make([]complex128, size/2)
			for k := range t.w[d] {
				t.w[d][k] = w
				w *= step
			}
		}
	})
	return t.w[dir]
}

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

// plan is one direction of the transforms of length n with the butterfly
// factors of every level looked up, so that the lines of a 3-D transform
// share one lookup.
type plan struct {
	n, log2n int
	dir      int
	w        [bits.UintSize][]complex128 // w[level]: factors of the butterflies of size 1<<level
}

// init looks up the factors of a transform of length n, a power of two.
func (p *plan) init(n, dir int) {
	p.n, p.log2n, p.dir = n, bits.TrailingZeros(uint(n)), dir
	for level := 1; level <= p.log2n; level++ {
		p.w[level] = twiddle(level, dir)
	}
}

// line transforms one contiguous line of length n in place.
func (p *plan) line(data []complex128) {
	n := len(data)
	// Bit-reversal permutation.
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
	// Butterfly passes.
	for level, size := 1, 2; size <= n; level, size = level+1, size<<1 {
		half := size / 2
		w := p.w[level]
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
}

// lines transforms the stride interleaved lines of data, n·stride elements,
// in place: point i of line s is data[i*stride+s]. Each step of the
// permutation and each butterfly runs across all the lines at once, over
// contiguous memory, and gives every element the operations line would give
// it in the same order.
func (p *plan) lines(data []complex128, stride int) {
	n := p.n
	row := func(i int) []complex128 { return data[i*stride : (i+1)*stride] }
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> (bits.UintSize - p.log2n)); i < j {
			a, b := row(i), row(j)
			for s := range a {
				a[s], b[s] = b[s], a[s]
			}
		}
	}
	for level, size := 1, 2; size <= n; level, size = level+1, size<<1 {
		half := size / 2
		for start := 0; start < n; start += size {
			for k, wk := range p.w[level] {
				lo, hi := row(start+k), row(start+half+k)
				for s := range lo {
					a := lo[s]
					b := hi[s] * wk
					lo[s] = a + b
					hi[s] = a - b
				}
			}
		}
	}
}

// normalise applies an inverse transform's 1/n to every element of data, as
// Inverse does after each line; a forward plan leaves data alone.
func (p *plan) normalise(data []complex128) {
	if p.dir != inverse {
		return
	}
	scale := complex(1/float64(p.n), 0)
	for i := range data {
		data[i] *= scale
	}
}

// Grid3 is a cube of complex values with side n stored contiguously in
// x-fastest order: index = (iz*n + iy)*n + ix.
type Grid3 struct {
	N    int
	Data []complex128
}

// NewGrid3 allocates an n×n×n complex grid. n must be a power of two.
func NewGrid3(n int) (*Grid3, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: grid side %d is not a power of two", n)
	}
	return &Grid3{N: n, Data: make([]complex128, n*n*n)}, nil
}

// At returns the value at (ix, iy, iz).
func (g *Grid3) At(ix, iy, iz int) complex128 {
	return g.Data[(iz*g.N+iy)*g.N+ix]
}

// Set stores v at (ix, iy, iz).
func (g *Grid3) Set(ix, iy, iz int, v complex128) {
	g.Data[(iz*g.N+iy)*g.N+ix] = v
}

// Forward3 computes the in-place 3-D forward DFT of g by transforming along
// x, then y, then z.
func Forward3(g *Grid3) error { return transform3(g, forward) }

// Inverse3 computes the in-place 3-D inverse DFT of g, including the 1/N³
// normalisation (each 1-D pass carries its own 1/N).
func Inverse3(g *Grid3) error { return transform3(g, inverse) }

// transform3 applies a 1-D transform in the given direction along each of
// the three axes: the contiguous x rows one by one, then the y lines of each
// z plane (stride n) and the z lines of the cube (stride n²) a plane at a
// time.
func transform3(g *Grid3, dir int) error {
	n := g.N
	if !IsPow2(n) {
		return fmt.Errorf("fft: grid side %d is not a power of two", n)
	}
	var p plan
	p.init(n, dir)
	for row := 0; row < len(g.Data); row += n {
		p.line(g.Data[row : row+n])
	}
	p.normalise(g.Data)
	for plane := 0; plane < len(g.Data); plane += n * n {
		p.lines(g.Data[plane:plane+n*n], n)
	}
	p.normalise(g.Data)
	p.lines(g.Data, n*n)
	p.normalise(g.Data)
	return nil
}

// FreqIndex maps a grid index i in [0, n) to its signed frequency index in
// [-n/2, n/2), the usual DFT frequency layout.
func FreqIndex(i, n int) int {
	if i <= n/2 {
		if i == n/2 {
			return -n / 2
		}
		return i
	}
	return i - n
}

// WaveNumber returns the physical wavenumber (2π/boxSize)·FreqIndex(i,n) for
// grid index i on an n-point grid spanning boxSize.
func WaveNumber(i, n int, boxSize float64) float64 {
	return 2 * math.Pi * float64(FreqIndex(i, n)) / boxSize
}
