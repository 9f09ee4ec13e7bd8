// Package wiretest holds the checks every rpc.WireBody implementation must
// pass, for the tests of the packages that define one: the layout carries
// every field, sizes itself exactly, and its decoder refuses anything but a
// whole body.
package wiretest

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// Fill sets every field under the pointer v to a non-zero value, each
// different from the last: a layout that forgets a field, or reads two in
// the wrong order, cannot round-trip a filled body. Slices get two elements,
// strings are non-ASCII, floats have a fraction.
func Fill(v any) {
	n := 0
	fill(reflect.ValueOf(v).Elem(), &n)
}

func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.String:
		v.SetString("é☃" + string(rune('a'+*n%26)) + string(rune('0'+*n/26%10)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint8:
		v.SetUint(uint64(*n))
	default:
		panic("wiretest: no filler for " + v.Type().String())
	}
}

// Equal compares two values the way the wire can tell them apart: floats by
// bit pattern (so a NaN equals itself), an empty slice equal to a nil one.
func Equal(a, b any) bool { return equal(reflect.ValueOf(a), reflect.ValueOf(b)) }

func equal(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return equal(a.Elem(), b.Elem())
	case reflect.Struct:
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
