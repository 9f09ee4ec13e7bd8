// Package wiretest holds the checks every rpc.WireBody implementation must
// pass, for the tests of the packages that define one: the layout carries
// every field, sizes itself exactly, and its decoder refuses anything but a
// whole body.
package wiretest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/rpc"
)

// Fill sets every field under the pointer v to a non-zero value, each
// different from the last: a layout that forgets a field, or reads two in
// the wrong order, cannot round-trip a filled body. Slices and maps get two
// elements (a slice nested in three others none, so that a recursive type
// ends), strings are non-ASCII, floats have a fraction, times are UTC.
func Fill(v any) {
	n := 0
	fill(reflect.ValueOf(v).Elem(), &n, 0)
}

var timeType = reflect.TypeOf(time.Time{})

func fill(v reflect.Value, n *int, depth int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(time.Unix(int64(*n)<<20, int64(*n)).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n, depth)
		}
	case reflect.Slice:
		if depth == 3 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n, depth+1)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(key, n, depth+1)
			fill(val, n, depth+1)
			v.SetMapIndex(key, val)
		}
	case reflect.String:
		v.SetString("é☃" + string(rune('a'+*n%26)) + string(rune('0'+*n/26%10)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint8:
		v.SetUint(uint64(*n))
	default:
		panic("wiretest: no filler for " + v.Type().String())
	}
}

// Equal compares two values the way the wire can tell them apart: floats by
// bit pattern (so a NaN equals itself), times by instant, an empty slice or
// map equal to a nil one.
func Equal(a, b any) bool { return equal(reflect.ValueOf(a), reflect.ValueOf(b)) }

func equal(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return equal(a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() == timeType {
			return a.Interface().(time.Time).Equal(b.Interface().(time.Time))
		}
		for i := 0; i < a.NumField(); i++ {
			if !equal(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equal(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !equal(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// RoundTrip encodes in, checks that the encoding is exactly WireSize bytes
// in a buffer allocated once and that the segments a socket is given spell
// the same bytes, decodes it into out (a fresh body of the same type) and
// checks the two are Equal. It returns the encoding.
func RoundTrip(t *testing.T, in, out rpc.WireBody) []byte {
	t.Helper()
	wire, err := rpc.Encode(in)
	if err != nil {
		t.Fatalf("encoding %+v: %v", in, err)
	}
	if len(wire) != in.WireSize() || cap(wire) != len(wire) {
		t.Errorf("%T: encoding is %d bytes in a buffer of %d, WireSize says %d", in, len(wire), cap(wire), in.WireSize())
	}
	SameSegments(t, in, wire)
	if err := rpc.Decode(wire, out); err != nil {
		t.Fatalf("decoding %T from %x: %v", in, wire, err)
	}
	if !Equal(in, out) {
		t.Errorf("round trip changed the body:\n sent %+v\n got  %+v", in, out)
	}
	return wire
}

// SameSegments checks that the pieces body goes to a socket in (rpc.Segments)
// are, end to end, wire — its encoding in one slice — with no empty piece
// among them: the two ways out of the encoder put the same bytes on the wire.
func SameSegments(t *testing.T, body rpc.WireBody, wire []byte) {
	t.Helper()
	var joined []byte
	for i, piece := range rpc.Segments(body) {
		if len(piece) == 0 {
			t.Errorf("%T: segment %d is empty", body, i)
		}
		joined = append(joined, piece...)
	}
	if !bytes.Equal(joined, wire) {
		t.Errorf("%T: segments join to %d bytes that differ from the %d of the flat encoding", body, len(joined), len(wire))
	}
}

// RefuseDamaged checks that every proper prefix of a valid encoding, the
// empty body included, and the encoding with a byte after it are decoding
// errors for a fresh body.
func RefuseDamaged(t *testing.T, wire []byte, fresh func() rpc.WireBody) {
	t.Helper()
	for n := 0; n < len(wire); n++ {
		if err := rpc.Decode(wire[:n:n], fresh()); err == nil {
			t.Errorf("%T decoded from the first %d of %d bytes", fresh(), n, len(wire))
		}
	}
	if err := rpc.Decode(append(wire[:len(wire):len(wire)], 0), fresh()); err == nil {
		t.Errorf("%T decoded with a trailing byte", fresh())
	}
}

// FuzzDecode is the body of a decoder's fuzz target: decoding data into body
// must not panic, and a body that decodes must encode back to data byte for
// byte (the layout has one encoding per value) in WireSize bytes, in one slice
// and in segments. It reports whether data decoded.
func FuzzDecode(t *testing.T, data []byte, body rpc.WireBody) bool {
	t.Helper()
	if err := rpc.Decode(data, body); err != nil {
		return false
	}
	again, err := rpc.Encode(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) || body.WireSize() != len(data) {
		t.Fatalf("%T decoded from %x encodes back to %x (WireSize %d)", body, data, again, body.WireSize())
	}
	SameSegments(t, body, data)
	return true
}

// Method is one method of an object on the wire: its name and fresh bodies
// of its request and its reply, nil for a side that carries no body. A
// package lists its objects' methods in a table, and its fuzz target and
// round-trip test take their bodies from it.
type Method struct {
	Name     string
	Req, Rep func() rpc.WireBody
}

// Bodies checks that table lists exactly the methods an object registers —
// a method added without its bodies, or listed and gone, shows — and
// returns the bodies of table, each method's request then its reply.
func Bodies(t testing.TB, table []Method, registered rpc.Methods) []func() rpc.WireBody {
	t.Helper()
	if len(table) != len(registered) {
		t.Errorf("%d methods listed, %d registered", len(table), len(registered))
	}
	var out []func() rpc.WireBody
	for _, m := range table {
		if _, ok := registered[m.Name]; !ok {
			t.Errorf("method %s is listed but not registered", m.Name)
		}
		for _, fresh := range []func() rpc.WireBody{m.Req, m.Rep} {
			if fresh != nil {
				out = append(out, fresh)
			}
		}
	}
	return out
}

// Seed adds to the corpus of a fuzz target taking (kind uint8, data []byte)
// the encoding of each body, as kind its index: filled, cut in half, with a
// byte more, and empty.
func Seed(f *testing.F, bodies []func() rpc.WireBody) {
	for kind, fresh := range bodies {
		body := fresh()
		Fill(body)
		wire, _ := rpc.Encode(body)
		for _, seed := range [][]byte{wire, wire[:len(wire)/2], append(wire[:len(wire):len(wire)], 0), {}} {
			f.Add(uint8(kind), seed)
		}
	}
}

// Lock pins the layouts of the bodies of tables to the frame version: a
// digest of every method's name and the encodings of its request and reply,
// each filled by Fill, must equal pinned[v], v the version byte the request
// frames of this build carry. A layout that moves under the same version
// fails, and so does a version without an entry; earlier entries stay as
// history.
func Lock(t *testing.T, pinned map[int]string, tables ...[]Method) {
	t.Helper()
	h := sha256.New()
	for _, table := range tables {
		for _, m := range table {
			fmt.Fprintf(h, "%q", m.Name)
			for _, fresh := range []func() rpc.WireBody{m.Req, m.Rep} {
				var wire []byte
				if fresh != nil {
					body := fresh()
					Fill(body)
					wire, _ = rpc.Encode(body) // fails only past the frame limit
				}
				fmt.Fprintf(h, " %d:%x", len(wire), wire)
			}
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil)[:12])
	switch v := frameVersion(t); {
	case pinned[v] == "":
		t.Errorf("frame version %d has no pinned layout digest: add an entry %d: %q", v, v, got)
	case pinned[v] != got:
		t.Errorf("body layouts moved under frame version %d (digest %s, pinned %s): bump frameVersion and add an entry", v, got, pinned[v])
	}
}

// frameVersion reads the version byte of this build's request frames off
// the wire: a listener takes one request and hangs up on it.
func frameVersion(t *testing.T) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go rpc.Call(ln.Addr().String(), "wiretest", "Version", nil, nil) // refused: the connection closes
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var head [5]byte // the frame's length, then its version
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		t.Fatal(err)
	}
	return int(head[4])
}
