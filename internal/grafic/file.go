package grafic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/fortranio"
)

// Header is the GRAFIC field-file header: grid dimensions, cell size,
// starting expansion factor and the cosmological parameters. It is stored as
// one Fortran record of 3 int32 + 8 float32 (44 bytes), exactly as the
// GRAFIC family of codes writes it; the three floats after the cell size are
// the box offsets, which WriteField always writes as 0.
type Header struct {
	N1, N2, N3     int32   // grid points per axis
	Dx             float32 // cell size, Mpc/h
	Astart         float32 // starting expansion factor
	OmegaM, OmegaL float32
	H0             float32 // km/s/Mpc
}

// WriteField writes one GRAFIC field file: the header record followed by N3
// plane records of N1×N2 float32 values each.
func WriteField(w io.Writer, h Header, data []float32) error {
	n := int(h.N1) * int(h.N2) * int(h.N3)
	if len(data) != n {
		return fmt.Errorf("grafic: field has %d values, header says %d", len(data), n)
	}
	fw := fortranio.NewWriter(w)
	hdr := make([]byte, 0, 44)
	hdr = appendInt32(hdr, h.N1)
	hdr = appendInt32(hdr, h.N2)
	hdr = appendInt32(hdr, h.N3)
	for _, f := range []float32{h.Dx, 0, 0, 0, h.Astart, h.OmegaM, h.OmegaL, h.H0} {
		hdr = appendFloat32(hdr, f)
	}
	if err := fw.WriteRecord(hdr); err != nil {
		return err
	}
	planeSize := int(h.N1) * int(h.N2)
	for iz := 0; iz < int(h.N3); iz++ {
		if err := fw.WriteFloat32s(data[iz*planeSize : (iz+1)*planeSize]); err != nil {
			return err
		}
	}
	return nil
}

// WriteDeltaFile writes the top-level overdensity field of ics (the
// "ic_deltab" file of the GRAFIC convention) to path.
func WriteDeltaFile(path string, ics *ICs) error {
	if ics.Delta == nil {
		return fmt.Errorf("grafic: ICs carry no delta field")
	}
	lvl := ics.Levels[0]
	h := Header{
		N1: int32(lvl.N), N2: int32(lvl.N), N3: int32(lvl.N),
		Dx:     float32(lvl.Dx),
		Astart: float32(ics.Astart),
		OmegaM: float32(ics.Cosmo.OmegaM),
		OmegaL: float32(ics.Cosmo.OmegaL),
		H0:     float32(100 * ics.Cosmo.H),
	}
	data := make([]float32, len(ics.Delta.Data))
	for i, v := range ics.Delta.Data {
		data[i] = float32(real(v))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteField(bw, h, data); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendFloat32(b []byte, v float32) []byte {
	bits := math.Float32bits(v)
	return append(b, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
}
