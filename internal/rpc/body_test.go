package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// pairBody is a minimal WireBody: a list of texts and a byte slice.
type pairBody struct {
	Names []string
	Blob  []byte
}

func (p *pairBody) WireSize() int              { return TextsSize(p.Names) + LenSize + len(p.Blob) }
func (p *pairBody) AppendWire(w Writer) Writer { return w.Texts(p.Names).Bytes(p.Blob) }
func (p *pairBody) ReadWire(r *Reader)         { p.Names, p.Blob = r.Texts(), r.Bytes() }

// blobsBody is a WireBody of several byte slices: the shape of a profile
// with several file arguments.
type blobsBody struct{ Blobs [][]byte }

func (b *blobsBody) WireSize() int {
	n := LenSize
	for _, blob := range b.Blobs {
		n += LenSize + len(blob)
	}
	return n
}

func (b *blobsBody) AppendWire(w Writer) Writer {
	w = w.Count(len(b.Blobs))
	for _, blob := range b.Blobs {
		w = w.Bytes(blob)
	}
	return w
}

func (b *blobsBody) ReadWire(r *Reader) {
	b.Blobs = ReadList(r, LenSize, func(blob *[]byte, r *Reader) { *blob = r.Bytes() })
}

// A byte field of SegmentCut bytes or more is left where it is on the way to
// a socket and copied on the way into one slice; the bytes are the same, and
// the local: transport gets the one slice.
func TestLargeFieldsAreReferencedNotCopied(t *testing.T) {
	small, atCut, large := make([]byte, SegmentCut-1), make([]byte, SegmentCut), make([]byte, 1<<20)
	for _, blob := range [][]byte{small, atCut, large} {
		for i := range blob {
			blob[i] = byte(i * 7)
		}
	}
	in := &blobsBody{Blobs: [][]byte{large, small, atCut, nil, large}}
	flat, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != in.WireSize() || cap(flat) != len(flat) {
		t.Fatalf("flat encoding is %d bytes in a buffer of %d, WireSize says %d", len(flat), cap(flat), in.WireSize())
	}
	body, err := encode(in)
	if err != nil {
		t.Fatal(err)
	}
	cuts := body.cuts()
	if len(cuts) != 3 || &cuts[0].data[0] != &large[0] || &cuts[1].data[0] != &atCut[0] || &cuts[2].data[0] != &large[0] {
		t.Fatalf("%d fields referenced, want the three of SegmentCut bytes or more, in place", len(cuts))
	}
	if body.size() != len(flat) || string(body.flat()) != string(flat) {
		t.Error("the segments do not flatten to the flat encoding")
	}
	pieces := body.appendTo(nil)
	// head | large | head (small inside it) | atCut | head | large, and
	// nothing after the last field.
	if len(pieces) != 6 || string(bytes.Join(pieces, nil)) != string(flat) {
		t.Errorf("%d pieces, want 6 that join to the flat encoding", len(pieces))
	}
	// Written twice, as the retry on a stale connection does, the second
	// copy is whole: WriteTo consumed a list of its own.
	var sent streamConn
	for i := 0; i < 2; i++ {
		if err := writeFrame(&sent, []byte("hdr"), body); err != nil {
			t.Fatal(err)
		}
	}
	if want := "hdr" + string(flat); sent.out.String() != want+want {
		t.Error("a body written twice did not arrive whole twice")
	}
	// A body under the cut as a whole is one exact slice either way.
	tiny, _ := encode(&blobsBody{Blobs: [][]byte{{1}, {2, 3}}})
	if tiny.refs != nil || cap(tiny.head) != len(tiny.head) {
		t.Errorf("a small body: %d refs, head of %d in a buffer of %d", len(tiny.cuts()), len(tiny.head), cap(tiny.head))
	}
}

func TestWireBodyBypassesGob(t *testing.T) {
	in := &pairBody{Names: []string{"a", ""}, Blob: []byte{1, 2, 3}}
	wire, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 2, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 3, 1, 2, 3}
	if string(wire) != string(want) || cap(wire) != len(want) {
		t.Fatalf("encoding = %v (cap %d), want %v", wire, cap(wire), want)
	}
	var out pairBody
	if err := Decode(wire, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Names) != 2 || out.Names[0] != "a" || out.Names[1] != "" || string(out.Blob) != "\x01\x02\x03" {
		t.Errorf("decoded %+v", out)
	}
	// The blob is the wire's own bytes, capped: an append reallocates instead
	// of running into whatever follows it in the frame.
	if &out.Blob[0] != &wire[len(wire)-3] || cap(out.Blob) != 3 {
		t.Errorf("blob is a copy or uncapped (cap %d)", cap(out.Blob))
	}
	if err := Decode(append(wire, 0), &pairBody{}); !errors.Is(err, ErrBody) {
		t.Errorf("trailing byte: %v, want ErrBody", err)
	}
	if err := Decode(nil, &pairBody{}); !errors.Is(err, ErrBody) {
		t.Errorf("empty body: %v, want ErrBody", err)
	}
}

// A count or a length is checked against the bytes left before anything is
// sized by it: a few bytes claiming four billion elements cost nothing.
func TestReaderChecksClaimsBeforeAllocating(t *testing.T) {
	claim := binary.BigEndian.AppendUint32(nil, math.MaxUint32)
	claim = append(claim, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if err := Decode(claim, &pairBody{}); !errors.Is(err, ErrBody) {
			t.Fatalf("over-claimed list: %v, want ErrBody", err)
		}
		r := Reader{rest: claim}
		if b := r.Bytes(); b != nil || r.Err() == nil {
			t.Fatalf("over-claimed byte slice read as %d bytes, err %v", len(b), r.Err())
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing 200 over-claimed bodies allocated %d bytes", grew)
	}
	// Exactly as many minimum-size elements as fit is fine; one more is not.
	fits, _ := Encode(&pairBody{Names: make([]string, 16)})
	if err := Decode(fits, &pairBody{}); err != nil {
		t.Errorf("16 empty texts in 64 bytes: %v", err)
	}
	binary.BigEndian.PutUint32(fits, 17)
	if err := Decode(fits[:len(fits)-LenSize], &pairBody{}); !errors.Is(err, ErrBody) {
		t.Errorf("17 texts claimed in 64 bytes: %v, want ErrBody", err)
	}
}

// The largest count fails the reader on every word size: converted to a
// 32-bit int before the check it would be negative, pass, and make a slice
// of negative length panic.
func TestReaderRefusesMaxUint32Count(t *testing.T) {
	claim := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)
	r := Reader{rest: claim}
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrBody) {
		t.Fatalf("Count of 0xFFFFFFFF = %d, err %v; want 0 and ErrBody", n, r.Err())
	}
	r = Reader{rest: claim}
	if list := ReadList(&r, 1, func(*byte, *Reader) {}); list != nil || !errors.Is(r.Err(), ErrBody) {
		t.Fatalf("ReadList of 0xFFFFFFFF elements = %d elements, err %v; want none and ErrBody", len(list), r.Err())
	}
}

func TestReaderScalars(t *testing.T) {
	w := Writer{}.Int(-1).Int(math.MinInt64).Float64(math.Inf(-1))
	w = w.Float64(math.Float64frombits(0x7ff8dead0000beef)) // a NaN with a payload
	w = w.Bool(true).Bool(false).Text("zoé")
	r := Reader{rest: w.head}
	if v := r.Int(); v != -1 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Int(); v != math.MinInt64 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Float64(); !math.IsInf(v, -1) {
		t.Errorf("Float64 = %v", v)
	}
	if v := math.Float64bits(r.Float64()); v != 0x7ff8dead0000beef {
		t.Errorf("NaN bits = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools came back wrong")
	}
	if s := r.Text(); s != "zoé" {
		t.Errorf("Text = %q", s)
	}
	if r.Err() != nil || len(r.rest) != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), len(r.rest))
	}
	// The first failure sticks and later reads are zero values.
	r = Reader{rest: []byte{2}}
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if r.Int() != 0 || r.Text() != "" || r.Count(1) != 0 || r.Err() != first {
		t.Errorf("reads after a failure: err %v, want the first one kept", r.Err())
	}
}
