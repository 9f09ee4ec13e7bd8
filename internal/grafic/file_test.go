package grafic

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/fortranio"
)

func TestFieldFileRoundTrip(t *testing.T) {
	h := Header{
		N1: 4, N2: 4, N3: 4,
		Dx: 1.5, Ox: 10, Oy: 20, Oz: 30,
		Astart: 0.1, OmegaM: 0.24, OmegaL: 0.76, H0: 73,
	}
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	var buf bytes.Buffer
	if err := WriteField(&buf, h, data); err != nil {
		t.Fatal(err)
	}
	gh, gd, err := ReadField(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Errorf("header round trip: got %+v, want %+v", gh, h)
	}
	for i := range data {
		if gd[i] != data[i] {
			t.Fatalf("data[%d] = %g, want %g", i, gd[i], data[i])
		}
	}
}

func TestWriteFieldSizeMismatch(t *testing.T) {
	h := Header{N1: 4, N2: 4, N3: 4}
	if err := WriteField(&bytes.Buffer{}, h, make([]float32, 10)); err == nil {
		t.Error("expected error for size mismatch")
	}
}

func TestReadFieldRejectsGarbage(t *testing.T) {
	if _, _, err := ReadField(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error for truncated header")
	}
	// A header with negative dimensions.
	h := Header{N1: 2, N2: 2, N3: 2}
	var buf bytes.Buffer
	if err := WriteField(&buf, h, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 0xFF // corrupt N1 into a negative number
	raw[5] = 0xFF
	raw[6] = 0xFF
	raw[7] = 0xFF
	if _, _, err := ReadField(bytes.NewReader(raw)); err == nil {
		t.Error("expected error for negative dimensions")
	}
}

func TestDeltaFileRoundTrip(t *testing.T) {
	g, err := New(cosmo.WMAP3(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := g.SingleLevel(8, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ics", "ic_deltab")
	if err := WriteDeltaFile(path, ics); err != nil {
		t.Fatal(err)
	}
	h, grid, err := ReadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.N1 != 8 || h.Astart != 0.1 {
		t.Errorf("header %+v", h)
	}
	for i, v := range ics.Delta.Data {
		if diff := real(grid.Data[i]) - float64(float32(real(v))); diff != 0 {
			t.Fatalf("cell %d differs by %g after float32 round trip", i, diff)
		}
	}
}

func TestWriteDeltaFileWithoutDelta(t *testing.T) {
	ics := &ICs{Cosmo: cosmo.WMAP3(), Levels: []Level{{N: 8}}}
	if err := WriteDeltaFile(filepath.Join(t.TempDir(), "x"), ics); err == nil {
		t.Error("expected error when ICs carry no delta")
	}
}

// ReadDeltaFile reads a field file from path and returns its header and a
// complex grid ready for FFT work.
func ReadDeltaFile(path string) (Header, *fft.Grid3, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	h, data, err := ReadField(bufio.NewReader(f))
	if err != nil {
		return Header{}, nil, err
	}
	if h.N1 != h.N2 || h.N2 != h.N3 {
		return Header{}, nil, fmt.Errorf("grafic: non-cubic field %dx%dx%d", h.N1, h.N2, h.N3)
	}
	grid, err := fft.NewGrid3(int(h.N1))
	if err != nil {
		return Header{}, nil, err
	}
	for i, v := range data {
		grid.Data[i] = complex(float64(v), 0)
	}
	return h, grid, nil
}

// ReadField reads one GRAFIC field file written by WriteField.
func ReadField(r io.Reader) (Header, []float32, error) {
	fr := fortranio.NewReader(r)
	rec, err := fr.ReadRecord()
	if err != nil {
		return Header{}, nil, err
	}
	if len(rec) != 44 {
		return Header{}, nil, fmt.Errorf("grafic: header record is %d bytes, want 44", len(rec))
	}
	var h Header
	h.N1 = readInt32(rec[0:])
	h.N2 = readInt32(rec[4:])
	h.N3 = readInt32(rec[8:])
	floats := []*float32{&h.Dx, &h.Ox, &h.Oy, &h.Oz, &h.Astart, &h.OmegaM, &h.OmegaL, &h.H0}
	for i, p := range floats {
		*p = readFloat32(rec[12+4*i:])
	}
	if h.N1 <= 0 || h.N2 <= 0 || h.N3 <= 0 {
		return Header{}, nil, fmt.Errorf("grafic: invalid grid dims %dx%dx%d", h.N1, h.N2, h.N3)
	}
	planeSize := int(h.N1) * int(h.N2)
	data := make([]float32, 0, planeSize*int(h.N3))
	for iz := 0; iz < int(h.N3); iz++ {
		plane, err := fr.ReadFloat32s()
		if err != nil {
			return Header{}, nil, fmt.Errorf("grafic: reading plane %d: %w", iz, err)
		}
		if len(plane) != planeSize {
			return Header{}, nil, fmt.Errorf("grafic: plane %d has %d values, want %d", iz, len(plane), planeSize)
		}
		data = append(data, plane...)
	}
	return h, data, nil
}

func readInt32(b []byte) int32 {
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

func readFloat32(b []byte) float32 {
	return math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}
