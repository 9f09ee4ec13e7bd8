package diet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gwproto"
)

// TestWireArgRoundTrip sends every argument kind, inline and by DataID,
// through the gateway's JSON (WireRequest, encoding/json, ProfileFromWire)
// and wants the argument back as it left.
func TestWireArgRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		set  func(p *Profile) error
	}{
		{"scalar int", func(p *Profile) error { return p.SetScalarInt(0, -7, Volatile) }},
		{"scalar double", func(p *Profile) error { return p.SetScalarDouble(0, 0.1, Sticky) }},
		{"vector", func(p *Profile) error { return p.SetVectorDouble(0, []float64{1, 2.5}, Volatile) }},
		{"matrix", func(p *Profile) error { return p.SetMatrixDouble(0, 2, 1, []float64{3, 4}, Persistent) }},
		{"string", func(p *Profile) error { return p.SetString(0, "namelist", Volatile) }},
		{"file", func(p *Profile) error { return p.SetFileBytes(0, "ic.dat", []byte{0, 1, 2}, Volatile) }},
		{"scalar int by DataID", func(p *Profile) error {
			p.Args[0] = Arg{Kind: Scalar, Base: Int, Persist: Persistent, DataID: "n"}
			return nil
		}},
		{"scalar double by DataID", func(p *Profile) error {
			p.Args[0] = Arg{Kind: Scalar, Base: Double, Persist: Sticky, DataID: "x"}
			return nil
		}},
		{"vector by DataID", func(p *Profile) error {
			p.Args[0] = Arg{Kind: Vector, Base: Double, Persist: Persistent, DataID: "v"}
			return nil
		}},
		{"matrix by DataID", func(p *Profile) error {
			p.Args[0] = Arg{Kind: Matrix, Base: Double, Persist: Persistent, Rows: 2, Cols: 3, DataID: "m"}
			return nil
		}},
		{"string by DataID", func(p *Profile) error {
			p.Args[0] = Arg{Kind: Text, Base: Char, Persist: Persistent, DataID: "s"}
			return nil
		}},
		{"file by DataID", func(p *Profile) error { return p.SetFileRef(0, "snap", "f", Sticky) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, _ := NewProfile("svc", 0, 0, 1)
			if err := c.set(p); err != nil {
				t.Fatal(err)
			}
			req, err := p.WireRequest()
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			var back gwproto.SolveRequest
			if err := json.Unmarshal(body, &back); err != nil {
				t.Fatal(err)
			}
			got, err := ProfileFromWire(back)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if !reflect.DeepEqual(got.Args, p.Args) {
				t.Fatalf("%s\nsent %+v\ngot  %+v", body, p.Args, got.Args)
			}
		})
	}
}

// TestProfileFromWireRefusesUnknownReference: a reference whose kind or
// base names no argument type, or that is volatile, is refused by name.
func TestProfileFromWireRefusesUnknownReference(t *testing.T) {
	for _, c := range []struct {
		arg  gwproto.Arg
		want string
	}{
		{gwproto.Arg{Kind: "tensor", Base: "double", Persist: "persistent", DataID: "t"}, `unknown kind "tensor"`},
		{gwproto.Arg{Kind: "vector", Base: "float", Persist: "persistent", DataID: "v"}, `unknown base "float"`},
		{gwproto.Arg{Kind: "vector", Base: "double", DataID: "v"}, "must be persistent or sticky"},
	} {
		_, err := ProfileFromWire(gwproto.SolveRequest{Service: "svc", LastIn: 0, LastInOut: 0, LastOut: 0, Args: []gwproto.Arg{c.arg}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want %q", c.arg, err, c.want)
		}
	}
}
