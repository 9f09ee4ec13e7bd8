package diet

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewProfileIndices(t *testing.T) {
	// The paper's ramsesZoom2 layout: 7 IN, 0 INOUT, 2 OUT.
	p, err := NewProfile("ramsesZoom2", 6, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Args) != 9 {
		t.Fatalf("%d args, want 9", len(p.Args))
	}
	for i := 0; i <= 6; i++ {
		if p.Direction(i) != In {
			t.Errorf("arg %d direction %s, want IN", i, p.Direction(i))
		}
	}
	for i := 7; i <= 8; i++ {
		if p.Direction(i) != Out {
			t.Errorf("arg %d direction %s, want OUT", i, p.Direction(i))
		}
	}
}

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile("", 0, 0, 1); err == nil {
		t.Error("empty service should fail")
	}
	if _, err := NewProfile("s", -2, 0, 1); err == nil {
		t.Error("lastIn < -1 should fail")
	}
	if _, err := NewProfile("s", 2, 1, 3); err == nil {
		t.Error("lastInOut < lastIn should fail")
	}
	if _, err := NewProfile("s", 0, 1, 0); err == nil {
		t.Error("lastOut < lastInOut should fail")
	}
	// No IN args at all is legal.
	p, err := NewProfile("s", -1, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Direction(0) != Out {
		t.Error("single arg should be OUT")
	}
}

func TestInOutDirection(t *testing.T) {
	p, _ := NewProfile("s", 0, 1, 2)
	if p.Direction(0) != In || p.Direction(1) != InOut || p.Direction(2) != Out {
		t.Errorf("directions: %s %s %s", p.Direction(0), p.Direction(1), p.Direction(2))
	}
}

func TestScalarRoundTrips(t *testing.T) {
	p, _ := NewProfile("s", 3, 3, 4)
	if err := p.SetScalarInt(0, -12345, Volatile); err != nil {
		t.Fatal(err)
	}
	if v, err := p.ScalarInt(0); err != nil || v != -12345 {
		t.Errorf("ScalarInt = %d, %v", v, err)
	}
	if err := p.SetScalarDouble(1, math.Pi, Persistent); err != nil {
		t.Fatal(err)
	}
	if v, err := p.ScalarDouble(1); err != nil || v != math.Pi {
		t.Errorf("ScalarDouble = %g, %v", v, err)
	}
	if p.Args[1].Persist != Persistent {
		t.Error("persistence not recorded")
	}
	// Type confusion is rejected.
	if _, err := p.ScalarDouble(0); err == nil {
		t.Error("reading int as double should fail")
	}
	if _, err := p.ScalarInt(1); err == nil {
		t.Error("reading double as int should fail")
	}
}

func TestScalarIntProperty(t *testing.T) {
	f := func(v int64) bool {
		p, _ := NewProfile("s", 0, 0, 1)
		if p.SetScalarInt(0, v, Volatile) != nil {
			return false
		}
		got, err := p.ScalarInt(0)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVectorMatrixRoundTrips(t *testing.T) {
	p, _ := NewProfile("s", 1, 1, 2)
	vec := []float64{1.5, -2.5, 1e300}
	if err := p.SetVectorDouble(0, vec, Volatile); err != nil {
		t.Fatal(err)
	}
	got, err := p.VectorDouble(0)
	if err != nil || len(got) != 3 {
		t.Fatalf("VectorDouble = %v, %v", got, err)
	}
	for i := range vec {
		if got[i] != vec[i] {
			t.Errorf("vec[%d] = %g", i, got[i])
		}
	}
	mat := []float64{1, 2, 3, 4, 5, 6}
	if err := p.SetMatrixDouble(1, 2, 3, mat, Volatile); err != nil {
		t.Fatal(err)
	}
	r, c, gm, err := p.MatrixDouble(1)
	if err != nil || r != 2 || c != 3 {
		t.Fatalf("MatrixDouble dims %dx%d, %v", r, c, err)
	}
	for i := range mat {
		if gm[i] != mat[i] {
			t.Errorf("mat[%d] = %g", i, gm[i])
		}
	}
	if err := p.SetMatrixDouble(1, 2, 2, mat, Volatile); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestStringAndFile(t *testing.T) {
	p, _ := NewProfile("s", 1, 1, 2)
	if err := p.SetString(0, "namelist content", Volatile); err != nil {
		t.Fatal(err)
	}
	if s, err := p.StringArg(0); err != nil || s != "namelist content" {
		t.Errorf("StringArg = %q, %v", s, err)
	}
	content := []byte{0, 1, 2, 255}
	if err := p.SetFileBytes(1, "data.bin", content, Volatile); err != nil {
		t.Fatal(err)
	}
	name, got, err := p.FileBytes(1)
	if err != nil || name != "data.bin" || len(got) != 4 {
		t.Errorf("FileBytes = %q, %v, %v", name, got, err)
	}
	if _, _, err := p.FileBytes(0); err == nil {
		t.Error("reading string as file should fail")
	}
}

func TestIndexOutOfRange(t *testing.T) {
	p, _ := NewProfile("s", 0, 0, 1)
	if err := p.SetScalarInt(5, 1, Volatile); err == nil {
		t.Error("out-of-range set should fail")
	}
	if _, err := p.ScalarInt(-1); err == nil {
		t.Error("negative index should fail")
	}
}

func TestPayloadBytes(t *testing.T) {
	p, _ := NewProfile("s", 0, 0, 1)
	p.SetFileBytes(0, "in.dat", make([]byte, 100), Volatile)
	p.SetFileBytes(1, "out.dat", make([]byte, 7), Volatile)
	if n := p.PayloadBytes(In); n != 100 {
		t.Errorf("IN payload %d, want 100", n)
	}
	if n := p.PayloadBytes(Out); n != 7 {
		t.Errorf("OUT payload %d, want 7", n)
	}
	if n := p.PayloadBytes(In, Out); n != 107 {
		t.Errorf("IN+OUT payload %d, want 107", n)
	}
}

func TestProfileDescMatching(t *testing.T) {
	d, err := NewProfileDesc("svc", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Set(0, Scalar, Int)
	d.Set(1, File, Char)

	good, _ := NewProfile("svc", 0, 0, 1)
	good.SetScalarInt(0, 7, Volatile)
	if err := d.Matches(good); err != nil {
		t.Errorf("matching profile rejected: %v", err)
	}

	wrongService, _ := NewProfile("other", 0, 0, 1)
	wrongService.SetScalarInt(0, 7, Volatile)
	if err := d.Matches(wrongService); err == nil {
		t.Error("wrong service should fail")
	}

	wrongShape, _ := NewProfile("svc", 1, 1, 2)
	if err := d.Matches(wrongShape); err == nil {
		t.Error("wrong index layout should fail")
	}

	wrongType, _ := NewProfile("svc", 0, 0, 1)
	wrongType.SetString(0, "x", Volatile)
	if err := d.Matches(wrongType); err == nil {
		t.Error("wrong IN type should fail")
	}

	// OUT arguments are not type-checked: the client's placeholder is fine.
	outPlaceholder, _ := NewProfile("svc", 0, 0, 1)
	outPlaceholder.SetScalarInt(0, 7, Volatile)
	outPlaceholder.SetString(1, "", Volatile) // "wrong" type in an OUT slot
	if err := d.Matches(outPlaceholder); err != nil {
		t.Errorf("OUT placeholder should be accepted: %v", err)
	}
}

func TestDescOf(t *testing.T) {
	p, _ := NewProfile("svc", 0, 0, 1)
	p.SetScalarDouble(0, 1.5, Volatile)
	p.SetFileBytes(1, "x", nil, Volatile)
	d := DescOf(p)
	if d.Service != "svc" || d.Args[0].Kind != Scalar || d.Args[1].Kind != File {
		t.Errorf("DescOf = %+v", d)
	}
	if err := d.Matches(p); err != nil {
		t.Errorf("profile must match its own descriptor: %v", err)
	}
}

func TestDescSetValidation(t *testing.T) {
	d, _ := NewProfileDesc("svc", 0, 0, 1)
	if err := d.Set(9, Scalar, Int); err == nil {
		t.Error("out-of-range Set should fail")
	}
}

func TestStringerCoverage(t *testing.T) {
	// The String methods feed error messages; keep them total.
	for _, b := range []BaseType{Char, Int, Double, BaseType(99)} {
		if b.String() == "" {
			t.Error("empty BaseType string")
		}
	}
	for _, k := range []ArgKind{Scalar, Vector, Matrix, Text, File, ArgKind(99)} {
		if k.String() == "" {
			t.Error("empty ArgKind string")
		}
	}
	for _, p := range []Persistence{Volatile, Persistent, Sticky, Persistence(99)} {
		if p.String() == "" {
			t.Error("empty Persistence string")
		}
	}
	for _, d := range []Direction{In, InOut, Out} {
		if d.String() == "" {
			t.Error("empty Direction string")
		}
	}
}

// StringArg reads a string from index i.
func (p *Profile) StringArg(i int) (string, error) {
	if err := p.checkIndex(i); err != nil {
		return "", err
	}
	a := &p.Args[i]
	if a.Kind != Text {
		return "", fmt.Errorf("diet: argument %d is %s, not string", i, a.Kind)
	}
	return string(a.Data), nil
}

// PayloadBytes sums the argument payload sizes with the given directions,
// used to model and measure transfer costs.
func (p *Profile) PayloadBytes(dirs ...Direction) int {
	want := make(map[Direction]bool, len(dirs))
	for _, d := range dirs {
		want[d] = true
	}
	total := 0
	for i := range p.Args {
		if want[p.Direction(i)] {
			total += len(p.Args[i].Data)
		}
	}
	return total
}

// DescOf extracts the signature of a concrete profile.
func DescOf(p *Profile) *ProfileDesc {
	d := &ProfileDesc{
		Service: p.Service,
		LastIn:  p.LastIn, LastInOut: p.LastInOut, LastOut: p.LastOut,
		Args: make([]ArgDesc, len(p.Args)),
	}
	for i := range p.Args {
		d.Args[i] = ArgDesc{Kind: p.Args[i].Kind, Base: p.Args[i].Base}
	}
	return d
}
