// Package fortranio reads and writes Fortran unformatted sequential files.
//
// RAMSES and GRAFIC exchange data as Fortran "unformatted" binary files: each
// record is framed by a 4-byte little-endian length marker before and after
// the payload. This package implements that framing plus typed helpers for
// the scalar and array payloads the cosmology pipeline uses.
package fortranio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrRecordMismatch is returned when the leading and trailing record length
// markers of a record disagree, which indicates a corrupt or non-Fortran file.
var ErrRecordMismatch = errors.New("fortranio: record length markers disagree")

// MaxRecordLen bounds the size of a single record accepted by Reader. Fortran
// compilers traditionally use a signed 32-bit marker, so a record can never
// legitimately exceed 2 GiB; we bound far lower to fail fast on garbage.
const MaxRecordLen = 1 << 30

// readChunk is the most a Reader allocates ahead of the bytes that back it:
// a record's length marker is only a claim until its payload has arrived.
const readChunk = 1 << 20

// Writer emits Fortran unformatted sequential records to an io.Writer.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer emitting records to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteRecord writes one framed record holding the given payload.
func (w *Writer) WriteRecord(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > MaxRecordLen {
		w.err = fmt.Errorf("fortranio: record of %d bytes exceeds maximum %d", len(payload), MaxRecordLen)
		return w.err
	}
	var marker [4]byte
	binary.LittleEndian.PutUint32(marker[:], uint32(len(payload)))
	if _, err := w.w.Write(marker[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(marker[:]); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WriteInt32 writes a record holding a single 32-bit integer, the most common
// header record in GRAFIC/RAMSES files.
func (w *Writer) WriteInt32(v int32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(v))
	return w.WriteRecord(buf[:])
}

// WriteFloat32s writes a record holding a slice of 32-bit floats. GRAFIC
// stores density planes and particle data in single precision.
func (w *Writer) WriteFloat32s(vs []float32) error {
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return w.WriteRecord(buf)
}

// WriteFloat64s writes a record holding a slice of 64-bit floats.
func (w *Writer) WriteFloat64s(vs []float64) error {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return w.WriteRecord(buf)
}

// Reader consumes Fortran unformatted sequential records from an io.Reader.
type Reader struct {
	r io.Reader
}

// NewReader returns a Reader consuming records from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadRecord reads the next framed record and returns its payload. It returns
// io.EOF cleanly when positioned at end of file.
func (r *Reader) ReadRecord() ([]byte, error) {
	var marker [4]byte
	if _, err := io.ReadFull(r.r, marker[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("fortranio: truncated leading marker: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(marker[:])
	if n > MaxRecordLen {
		return nil, fmt.Errorf("fortranio: record length %d exceeds maximum %d", n, MaxRecordLen)
	}
	payload := make([]byte, 0, min(n, readChunk))
	for len(payload) < int(n) {
		have := len(payload)
		next := min(int(n), have+readChunk)
		payload = slices.Grow(payload, next-have)[:next]
		if _, err := io.ReadFull(r.r, payload[have:]); err != nil {
			return nil, fmt.Errorf("fortranio: truncated record payload: %w", err)
		}
	}
	if _, err := io.ReadFull(r.r, marker[:]); err != nil {
		return nil, fmt.Errorf("fortranio: truncated trailing marker: %w", err)
	}
	if m := binary.LittleEndian.Uint32(marker[:]); m != n {
		return nil, fmt.Errorf("%w: leading %d trailing %d", ErrRecordMismatch, n, m)
	}
	return payload, nil
}

// ReadInt32 reads a record that must hold exactly one 32-bit integer.
func (r *Reader) ReadInt32() (int32, error) {
	p, err := r.ReadRecord()
	if err != nil {
		return 0, err
	}
	if len(p) != 4 {
		return 0, fmt.Errorf("fortranio: expected 4-byte int record, got %d bytes", len(p))
	}
	return int32(binary.LittleEndian.Uint32(p)), nil
}

// ReadFloat32s reads a record holding 32-bit floats.
func (r *Reader) ReadFloat32s() ([]float32, error) {
	p, err := r.ReadRecord()
	if err != nil {
		return nil, err
	}
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("fortranio: float32 record length %d not a multiple of 4", len(p))
	}
	vs := make([]float32, len(p)/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return vs, nil
}

// ReadFloat64s reads a record holding 64-bit floats.
func (r *Reader) ReadFloat64s() ([]float64, error) {
	p, err := r.ReadRecord()
	if err != nil {
		return nil, err
	}
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("fortranio: float64 record length %d not a multiple of 8", len(p))
	}
	vs := make([]float64, len(p)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return vs, nil
}
