package fortranio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := [][]byte{
		{},
		{0x01},
		[]byte("hello fortran"),
		bytes.Repeat([]byte{0xAB}, 1024),
	}
	for _, p := range payloads {
		if err := w.WriteRecord(p); err != nil {
			t.Fatalf("WriteRecord(%d bytes): %v", len(p), err)
		}
	}
	r := NewReader(&buf)
	for i, want := range payloads {
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("ReadRecord %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d: got %v, want %v", i, got, want)
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Errorf("after last record: got %v, want io.EOF", err)
	}
}

func TestRecordFraming(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) != 4+3+4 {
		t.Fatalf("framed record is %d bytes, want 11", len(raw))
	}
	if n := binary.LittleEndian.Uint32(raw[:4]); n != 3 {
		t.Errorf("leading marker = %d, want 3", n)
	}
	if n := binary.LittleEndian.Uint32(raw[7:]); n != 3 {
		t.Errorf("trailing marker = %d, want 3", n)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(payload); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadRecord()
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypedRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	i32s := []int32{-1, 0, 1, math.MaxInt32, math.MinInt32}
	f32s := []float32{0, -1.5, math.Pi, 1e30, -1e-30}
	f64s := []float64{0, -1.5, math.Pi, 1e300, -1e-300}
	if err := w.WriteInt32(42); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInt32s(i32s); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFloat32s(f32s); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFloat64s(f64s); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteString("GRAFIC"); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if v, err := r.ReadInt32(); err != nil || v != 42 {
		t.Errorf("ReadInt32 = %d, %v; want 42", v, err)
	}
	gi, err := r.ReadInt32s()
	if err != nil {
		t.Fatal(err)
	}
	for i := range i32s {
		if gi[i] != i32s[i] {
			t.Errorf("int32[%d] = %d, want %d", i, gi[i], i32s[i])
		}
	}
	gf32, err := r.ReadFloat32s()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f32s {
		if gf32[i] != f32s[i] {
			t.Errorf("float32[%d] = %g, want %g", i, gf32[i], f32s[i])
		}
	}
	gf64, err := r.ReadFloat64s()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f64s {
		if gf64[i] != f64s[i] {
			t.Errorf("float64[%d] = %g, want %g", i, gf64[i], f64s[i])
		}
	}
	if s, err := r.ReadString(); err != nil || s != "GRAFIC" {
		t.Errorf("ReadString = %q, %v; want GRAFIC", s, err)
	}
}

func TestFloat64sProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteFloat64s(vals); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadFloat64s()
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN-safe bit comparison.
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMarkerMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-4] = 99 // corrupt the trailing marker
	_, err := NewReader(bytes.NewReader(raw)).ReadRecord()
	if !errors.Is(err, ErrRecordMismatch) {
		t.Errorf("got %v, want ErrRecordMismatch", err)
	}
}

func TestTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{2, 4, 50, len(full) - 2} {
		_, err := NewReader(bytes.NewReader(full[:cut])).ReadRecord()
		if err == nil {
			t.Errorf("truncation at %d bytes: expected error", cut)
		}
	}
}

func TestGarbageLengthRejected(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0} // ~2 GiB marker
	if _, err := NewReader(bytes.NewReader(raw)).ReadRecord(); err == nil {
		t.Error("expected error for oversized record length")
	}
}

// A length marker is only a claim: a record that says 1 GiB and stops after
// 8 bytes is refused without allocating the gigabyte first.
func TestClaimedLengthAllocatesOnlyWhatArrives(t *testing.T) {
	raw := binary.LittleEndian.AppendUint32(nil, MaxRecordLen)
	raw = append(raw, 1, 2, 3, 4, 5, 6, 7, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(raw)).ReadRecord()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated 1 GiB record was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*readChunk {
		t.Errorf("refusing an 8-byte payload allocated %d bytes, want at most %d", got, 2*readChunk)
	}

	// A record longer than one chunk still reads back whole.
	big := make([]byte, 2*readChunk+3)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRecord(big); err != nil {
		t.Fatal(err)
	}
	if got, err := NewReader(&buf).ReadRecord(); err != nil || !bytes.Equal(got, big) {
		t.Errorf("a %d-byte record read back as %d bytes, %v", len(big), len(got), err)
	}
}

func TestTypedLengthValidation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord([]byte{1, 2, 3}); err != nil { // not a multiple of 4
		t.Fatal(err)
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes())).ReadFloat32s(); err == nil {
		t.Error("expected error reading 3-byte record as float32s")
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes())).ReadInt32(); err == nil {
		t.Error("expected error reading 3-byte record as a single int32")
	}
}

func TestSkipRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteRecord(bytes.Repeat([]byte{1}, 37))
	w.WriteInt32(5)
	r := NewReader(&buf)
	n, err := r.SkipRecord()
	if err != nil || n != 37 {
		t.Fatalf("SkipRecord = %d, %v; want 37", n, err)
	}
	if v, err := r.ReadInt32(); err != nil || v != 5 {
		t.Errorf("after skip: ReadInt32 = %d, %v; want 5", v, err)
	}
}

func TestWriterErrorSticky(t *testing.T) {
	w := NewWriter(failWriter{})
	if err := w.WriteInt32(1); err == nil {
		t.Fatal("expected write error")
	}
	if w.Err() == nil {
		t.Error("Err() should report the sticky error")
	}
	if err := w.WriteInt32(2); err == nil {
		t.Error("subsequent writes should keep failing")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// Err returns the first error encountered by the writer, if any.
func (w *Writer) Err() error { return w.err }

// WriteInt32s writes a record holding a slice of 32-bit integers.
func (w *Writer) WriteInt32s(vs []int32) error {
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return w.WriteRecord(buf)
}

// WriteString writes a record holding raw string bytes (no terminator),
// matching Fortran character(len=n) records.
func (w *Writer) WriteString(s string) error { return w.WriteRecord([]byte(s)) }

// ReadInt32s reads a record holding 32-bit integers.
func (r *Reader) ReadInt32s() ([]int32, error) {
	p, err := r.ReadRecord()
	if err != nil {
		return nil, err
	}
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("fortranio: int32 record length %d not a multiple of 4", len(p))
	}
	vs := make([]int32, len(p)/4)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return vs, nil
}

// ReadString reads a record and returns its payload as a string.
func (r *Reader) ReadString() (string, error) {
	p, err := r.ReadRecord()
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// SkipRecord discards the next record, returning its payload length.
func (r *Reader) SkipRecord() (int, error) {
	p, err := r.ReadRecord()
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func TestWriteFloat64sReusesItsBuffer(t *testing.T) {
	// Every record is encoded through the writer's one buffer: once it has
	// grown to the largest record, writing another allocates nothing.
	w := NewWriter(io.Discard)
	big, small := make([]float64, 4096), []float64{1, 2, 3}
	if err := w.WriteFloat64s(big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := w.WriteFloat64s(big); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFloat64s(small); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("two WriteFloat64s records made %.0f allocations, want 0", allocs)
	}
}
