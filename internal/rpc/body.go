package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// WireBody is a call body with a hand-written layout: the structs that cross
// the wire on every GridRPC call (profile, estimates, submit/collect/solve
// requests and replies, naming's batched resolve) implement it on their
// pointer types, and Encode/Decode use it instead of gob. Everything else —
// admin, gossip, migration, federation, data-manager bodies — stays gob.
//
// The layout is positional, all integers big-endian like the frame header:
//
//	int      8 bytes, two's complement
//	float64  8 bytes, IEEE 754 bits
//	bool     1 byte, 0 or 1
//	text     4-byte length, then the bytes
//	bytes    4-byte length, then the bytes
//	list     4-byte count, then the elements
//
// The method names are deliberately none that encoding/gob or encoding/json
// look for: the same structs ride inside gob and JSON bodies on cold paths and
// must encode there as plain structs.
type WireBody interface {
	// WireSize is the exact length AppendWire adds, so Encode allocates once.
	WireSize() int
	// AppendWire appends the body's encoding to b.
	AppendWire(b []byte) []byte
	// ReadWire fills the body from r. Byte-slice fields alias the data r
	// reads (see Reader.Bytes); errors are left in r.
	ReadWire(r *Reader)
}

// Encoded sizes of the fixed-width fields, for WireSize implementations.
const (
	IntSize     = 8
	Float64Size = 8
	BoolSize    = 1
	LenSize     = 4 // the length prefix of a text, a byte slice or a list
)

// Encode encodes a value for use as a call body: a WireBody by its own
// layout, anything else with gob.
func Encode(v any) ([]byte, error) {
	if w, ok := v.(WireBody); ok {
		return w.AppendWire(make([]byte, 0, w.WireSize())), nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode decodes a call body into v (a pointer). A WireBody must consume the
// body exactly; its byte-slice fields alias data, which the caller must not
// reuse — frames and Encode results never are.
func Decode(data []byte, v any) error {
	if w, ok := v.(WireBody); ok {
		r := Reader{rest: data}
		w.ReadWire(&r)
		if r.err == nil && len(r.rest) > 0 {
			r.err = fmt.Errorf("%w: %d trailing bytes", ErrBody, len(r.rest))
		}
		return r.err
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// ErrBody is wrapped by every failure to decode a WireBody.
var ErrBody = errors.New("rpc: malformed body")

// Reader consumes a WireBody encoding. The first failure sticks: every later
// read returns a zero value, so a ReadWire runs straight through and the
// caller checks Err once. No read allocates more than a constant multiple of
// the bytes still unread.
type Reader struct {
	rest []byte
	err  error
}

// Err is the first failure met, nil if none.
func (r *Reader) Err() error { return r.err }

// Fail records a failure found by the caller (a field read fine but does not
// make sense); it keeps an earlier one.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBody, fmt.Sprintf(format, args...))
	}
}

// take splits the next n bytes off, or fails.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.Fail("%d bytes wanted, %d left", n, len(r.rest))
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}

// Int reads an int.
func (r *Reader) Int() int {
	b := r.take(IntSize)
	if b == nil {
		return 0
	}
	v := int64(binary.BigEndian.Uint64(b))
	if int64(int(v)) != v {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Float64 reads a float64, bit for bit.
func (r *Reader) Float64() float64 {
	b := r.take(Float64Size)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// Bool reads a bool; any byte but 0 and 1 is a failure.
func (r *Reader) Bool() bool {
	b := r.take(BoolSize)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Fail("bool byte %d", b[0])
	}
	return b[0] == 1
}

// Count reads the element count of a list whose elements take at least
// minSize bytes each, and fails if that many cannot be left: the caller may
// allocate count elements.
func (r *Reader) Count(minSize int) int {
	b := r.take(LenSize)
	if b == nil {
		return 0
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > len(r.rest)/minSize {
		r.Fail("%d elements of at least %d bytes claimed, %d bytes left", n, minSize, len(r.rest))
		return 0
	}
	return n
}

// Bytes reads a byte slice. It is not copied: the result aliases the data
// being decoded, capped so that an append cannot run into what follows. An
// empty slice reads as nil.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	return r.take(n)
}

// Text reads a string.
func (r *Reader) Text() string { return string(r.Bytes()) }

// AppendInt appends an int.
func AppendInt(b []byte, v int) []byte { return binary.BigEndian.AppendUint64(b, uint64(int64(v))) }

// AppendFloat64 appends a float64.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends a bool.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendCount appends a list's element count; it also prefixes texts and
// byte slices. A count beyond 32 bits cannot be framed (maxFrame) and is a
// caller bug.
func AppendCount(b []byte, n int) []byte { return binary.BigEndian.AppendUint32(b, uint32(n)) }

// AppendBytes appends a byte slice.
func AppendBytes(b, v []byte) []byte { return append(AppendCount(b, len(v)), v...) }

// AppendText appends a string.
func AppendText(b []byte, s string) []byte { return append(AppendCount(b, len(s)), s...) }

// TextsSize is the encoded size of a list of strings.
func TextsSize(list []string) int {
	n := LenSize
	for _, s := range list {
		n += LenSize + len(s)
	}
	return n
}

// AppendTexts appends a list of strings.
func AppendTexts(b []byte, list []string) []byte {
	b = AppendCount(b, len(list))
	for _, s := range list {
		b = AppendText(b, s)
	}
	return b
}

// Texts reads a list of strings; an empty list reads as nil.
func (r *Reader) Texts() []string {
	return ReadList(r, LenSize, func(s *string, r *Reader) { *s = r.Text() })
}

// ReadList reads a list whose elements take at least minSize bytes each,
// filling every element with read (a ReadWire method expression fits). The
// list is allocated only once Count has found room for it in the bytes left;
// an empty list reads as nil.
func ReadList[T any](r *Reader, minSize int, read func(*T, *Reader)) []T {
	n := r.Count(minSize)
	if n == 0 {
		return nil
	}
	list := make([]T, n)
	for i := range list {
		read(&list[i], r)
	}
	return list
}
