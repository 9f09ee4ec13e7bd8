package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"time"
)

// WireBody is a call body: every request and reply an object's methods
// exchange implements it on its pointer type, so that a body passed by value
// to Call or Encode does not compile. A method with nothing to send on one
// side sends no body there (nil).
//
// The layout is positional, all integers big-endian like the frame header:
//
//	int      8 bytes, two's complement (int64 too)
//	float64  8 bytes, IEEE 754 bits
//	bool     1 byte, 0 or 1
//	time     8-byte Unix seconds, 8-byte nanoseconds, read back in UTC
//	text     4-byte length, then the bytes
//	bytes    4-byte length, then the bytes
//	list     4-byte count, then the elements
//	map      4-byte count, then each key text and value, keys ascending
//
// The method names are deliberately none that encoding/json looks for: the
// same structs ride inside JSON documents and must encode there as plain
// structs.
type WireBody interface {
	// WireSize is the exact length AppendWire adds, so Encode allocates once.
	WireSize() int
	// AppendWire appends the body's encoding to w and returns the result, as
	// append does: every Writer method returns the Writer to go on with.
	AppendWire(w Writer) Writer
	// ReadWire fills the body from r. Byte-slice fields alias the data r
	// reads (see Reader.Bytes); errors are left in r.
	ReadWire(r *Reader)
}

// Encoded sizes of the fixed-width fields, for WireSize implementations.
const (
	IntSize     = 8
	Float64Size = 8
	BoolSize    = 1
	TimeSize    = 16
	LenSize     = 4 // the length prefix of a text, a byte slice, a list or a map
)

// SegmentCut is the length from which a byte-slice field of a WireBody is
// sent from the memory it is in instead of being copied next to the fields
// around it (Writer.Bytes). Below it, one more entry in the writev costs more
// than the copy it saves.
const SegmentCut = 4 << 10

// Encode encodes a body in one slice. It cannot fail: the error is always
// nil.
func Encode(b WireBody) ([]byte, error) {
	return flatWire(b, b.WireSize()), nil
}

// flatWire is a WireBody of size bytes in one slice of exactly that size.
func flatWire(b WireBody, size int) []byte {
	return b.AppendWire(Writer{segments{head: make([]byte, 0, size)}}).head
}

// encode is Encode for a body on its way to a socket: the same bytes, with
// its large byte fields referenced where they are. The caller must leave
// those bytes alone until the segments have been written. A nil body is no
// bytes.
func encode(b WireBody) segments {
	if b == nil {
		return segments{}
	}
	// A body shorter than the cut has no field to reference: its head is the
	// one exact slice of Encode. A longer one starts its head at the cut and
	// grows it if it must.
	size := b.WireSize()
	if size < SegmentCut {
		return segments{head: flatWire(b, size)}
	}
	return b.AppendWire(Writer{segments{head: make([]byte, 0, SegmentCut), refs: new([]ref)}}).segments
}

// Segments is the encoding of a WireBody in the pieces the tcp transport
// hands to writev: concatenated they are Encode(v), and every byte field of
// at least SegmentCut bytes is a piece of its own, aliasing v.
func Segments(v WireBody) net.Buffers {
	return encode(v).appendTo(nil)
}

// segments is an encoded body in the pieces it is sent in: head holds every
// byte but those of the fields in refs, which stay in the caller's memory. A
// body without refs is its head. (The list is behind a pointer to keep the
// struct at four words: it is passed and returned by value on every call, and
// a larger one would live in memory instead of registers.)
type segments struct {
	head []byte
	refs *[]ref
}

// cuts is the list of fields cut out of the head, in order.
func (s segments) cuts() []ref {
	if s.refs == nil {
		return nil
	}
	return *s.refs
}

// ref is a byte field cut out of a head: data belongs after head[:at].
type ref struct {
	at   int
	data []byte
}

// size is the length of the whole body.
func (s segments) size() int {
	n := len(s.head)
	for _, r := range s.cuts() {
		n += len(r.data)
	}
	return n
}

// appendTo appends the body's pieces to bufs in wire order. Empty stretches
// of head (two referenced fields in a row cannot be, a length lies between
// them; a referenced field last can) are left out.
func (s segments) appendTo(bufs net.Buffers) net.Buffers {
	from := 0
	for _, r := range s.cuts() {
		bufs = append(bufs, s.head[from:r.at], r.data)
		from = r.at
	}
	if from < len(s.head) {
		bufs = append(bufs, s.head[from:])
	}
	return bufs
}

// flat is the body in one slice: the head itself when nothing was cut out of
// it, a copy otherwise. The local: transport sends this, so a handler never
// shares memory with its caller.
func (s segments) flat() []byte {
	if len(s.cuts()) == 0 {
		return s.head
	}
	return bytes.Join(s.appendTo(nil), nil)
}

// Decode decodes a call body into b, which must consume it exactly. Its
// byte-slice fields alias data. A method decoding its request holds them
// only until it returns: a server reads a later large request into the same
// memory (framePool), so a field kept longer is copied, or the method
// answers Keep.
func Decode(data []byte, b WireBody) error {
	r := Reader{rest: data}
	b.ReadWire(&r)
	if r.err == nil && len(r.rest) > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrBody, len(r.rest))
	}
	return r.err
}

// ErrBody is wrapped by every failure to decode a WireBody.
var ErrBody = errors.New("rpc: malformed body")

// Reader consumes a WireBody encoding. The first failure sticks: every later
// read returns a zero value, so a ReadWire runs straight through and Decode
// checks the failure once. No read allocates more than a constant multiple of
// the bytes still unread.
type Reader struct {
	rest []byte
	err  error
}

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

// Int64 reads an int64.
func (r *Reader) Int64() int64 {
	b := r.take(IntSize)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Int reads an int.
func (r *Reader) Int() int {
	v := r.Int64()
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
	// Compared unsigned: on a 32-bit host a count of 2³¹ or more is a
	// negative int, which would pass the check.
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(r.rest)/minSize) {
		r.Fail("%d elements of at least %d bytes claimed, %d bytes left", n, minSize, len(r.rest))
		return 0
	}
	return int(n)
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

// Writer builds a WireBody encoding field by field, the mirror of Reader. It
// is a value threaded through the calls like the slice of an append — every
// method returns the Writer holding what it added — and small enough to live
// in registers. Nothing it does can fail: the sizes that cannot be framed are
// refused where the frame is built (maxFrame). The zero Writer is ready to
// use and copies every field.
type Writer struct {
	// What has been written so far. With refs nil every byte field is copied
	// into head (the body is wanted in one slice, Encode); otherwise Bytes
	// lists there the ones it leaves where they are.
	segments
}

// Int appends an int.
func (w Writer) Int(v int) Writer { return w.Int64(int64(v)) }

// Int64 appends an int64.
func (w Writer) Int64(v int64) Writer {
	w.head = binary.BigEndian.AppendUint64(w.head, uint64(v))
	return w
}

// Time appends a time: its instant, not its location or monotonic reading.
func (w Writer) Time(t time.Time) Writer { return w.Int64(t.Unix()).Int64(int64(t.Nanosecond())) }

// Time reads a time, in UTC: the zero time reads as the zero time.
func (r *Reader) Time() time.Time {
	sec, nsec := r.Int64(), r.Int64()
	if nsec < 0 || nsec >= 1e9 {
		r.Fail("time with %d nanoseconds", nsec)
		return time.Time{}
	}
	return time.Unix(sec, nsec).UTC()
}

// Float64 appends a float64.
func (w Writer) Float64(v float64) Writer {
	w.head = binary.BigEndian.AppendUint64(w.head, math.Float64bits(v))
	return w
}

// Bool appends a bool.
func (w Writer) Bool(v bool) Writer {
	var b byte
	if v {
		b = 1
	}
	w.head = append(w.head, b)
	return w
}

// Count appends a list's element count; it also prefixes texts and byte
// slices. A count beyond 32 bits cannot be framed (maxFrame) and is a caller
// bug.
func (w Writer) Count(n int) Writer {
	w.head = binary.BigEndian.AppendUint32(w.head, uint32(n))
	return w
}

// Bytes appends a byte slice. On its way to a socket a slice of SegmentCut
// bytes or more is not copied: v itself is sent, and must not change until
// the call it is part of has returned.
func (w Writer) Bytes(v []byte) Writer {
	w = w.Count(len(v))
	if len(v) >= SegmentCut && w.refs != nil {
		*w.refs = append(*w.refs, ref{at: len(w.head), data: v})
		return w
	}
	w.head = append(w.head, v...)
	return w
}

// Text appends a string.
func (w Writer) Text(s string) Writer {
	w = w.Count(len(s))
	w.head = append(w.head, s...)
	return w
}

// TextSize is the encoded size of the given texts, one after the other.
func TextSize(texts ...string) int {
	n := len(texts) * LenSize
	for _, t := range texts {
		n += len(t)
	}
	return n
}

// TextsSize is the encoded size of a list of strings.
func TextsSize(list []string) int { return LenSize + TextSize(list...) }

// Texts appends a list of strings.
func (w Writer) Texts(list []string) Writer {
	w = w.Count(len(list))
	for _, s := range list {
		w = w.Text(s)
	}
	return w
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

// ptrBody is the constraint of the helpers below: *T is a WireBody.
type ptrBody[T any] interface {
	*T
	WireBody
}

// ListSize is the encoded size of a list of bodies.
func ListSize[T any, P ptrBody[T]](list []T) int {
	n := LenSize
	for i := range list {
		n += P(&list[i]).WireSize()
	}
	return n
}

// AppendList appends a list of bodies.
func AppendList[T any, P ptrBody[T]](w Writer, list []T) Writer {
	w = w.Count(len(list))
	for i := range list {
		w = P(&list[i]).AppendWire(w)
	}
	return w
}

// ReadBodies reads a list of bodies; an empty list reads as nil.
func ReadBodies[T any, P ptrBody[T]](r *Reader) []T {
	return ReadList(r, P(new(T)).WireSize(), func(v *T, r *Reader) { P(v).ReadWire(r) })
}

// MapSize is the encoded size of a map of bodies.
func MapSize[T any, P ptrBody[T]](m map[string]T) int {
	n := LenSize
	for k, v := range m {
		n += LenSize + len(k) + P(&v).WireSize()
	}
	return n
}

// AppendMap appends a map of bodies, its keys in ascending order so that a
// map has one encoding.
func AppendMap[T any, P ptrBody[T]](w Writer, m map[string]T) Writer {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w = w.Count(len(keys))
	for _, k := range keys {
		v := m[k]
		w = P(&v).AppendWire(w.Text(k))
	}
	return w
}

// ReadMap reads a map of bodies; keys out of ascending order, repeats
// included, are a failure. An empty map reads as nil.
func ReadMap[T any, P ptrBody[T]](r *Reader) map[string]T {
	n := r.Count(LenSize + P(new(T)).WireSize())
	if n == 0 {
		return nil
	}
	m := make(map[string]T, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.Text()
		if i > 0 && k <= prev {
			r.Fail("map key %q after %q", k, prev)
		}
		var v T
		P(&v).ReadWire(r)
		m[k], prev = v, k
	}
	return m
}

// Text, Int, Float and Bool are bodies of one value, for the methods that
// take or answer nothing more.
type (
	Text  string
	Int   int64
	Float float64
	Bool  bool
)

func (t *Text) WireSize() int              { return LenSize + len(*t) }
func (t *Text) AppendWire(w Writer) Writer { return w.Text(string(*t)) }
func (t *Text) ReadWire(r *Reader)         { *t = Text(r.Text()) }

func (n *Int) WireSize() int              { return IntSize }
func (n *Int) AppendWire(w Writer) Writer { return w.Int64(int64(*n)) }
func (n *Int) ReadWire(r *Reader)         { *n = Int(r.Int64()) }

func (f *Float) WireSize() int              { return Float64Size }
func (f *Float) AppendWire(w Writer) Writer { return w.Float64(float64(*f)) }
func (f *Float) ReadWire(r *Reader)         { *f = Float(r.Float64()) }

func (b *Bool) WireSize() int              { return BoolSize }
func (b *Bool) AppendWire(w Writer) Writer { return w.Bool(bool(*b)) }
func (b *Bool) ReadWire(r *Reader)         { *b = Bool(r.Bool()) }
