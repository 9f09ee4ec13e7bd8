package particles

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWrap(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.5, 0.5}, {1, 0}, {1.25, 0.25}, {-0.25, 0.75}, {-1, 0}, {2.5, 0.5},
	}
	for _, c := range cases {
		if got := Wrap(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Wrap(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestWrapProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true // out of modelling range
		}
		w := Wrap(x)
		return w >= 0 && w < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPeriodicDelta(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0.1, 0.2, -0.1},
		{0.9, 0.1, -0.2}, // wraps around
		{0.1, 0.9, 0.2},
		{0.5, 0.5, 0},
	}
	for _, c := range cases {
		if got := PeriodicDelta(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PeriodicDelta(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestPeriodicDeltaRange(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = Wrap(math.Abs(math.Mod(a, 10))), Wrap(math.Abs(math.Mod(b, 10)))
		d := PeriodicDelta(a, b)
		return d >= -0.5 && d <= 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDist2MinimumImage(t *testing.T) {
	a := [3]float64{0.95, 0.5, 0.5}
	b := [3]float64{0.05, 0.5, 0.5}
	if d := Dist2(a, b); math.Abs(d-0.01) > 1e-12 {
		t.Errorf("Dist2 across boundary = %g, want 0.01", d)
	}
	if d := Dist2(a, a); d != 0 {
		t.Errorf("Dist2(a,a) = %g", d)
	}
}

func TestTotalMassAndCOM(t *testing.T) {
	s := Set{
		{Pos: [3]float64{0.25, 0.5, 0.5}, Mass: 1, ID: 1},
		{Pos: [3]float64{0.75, 0.5, 0.5}, Mass: 3, ID: 2},
	}
	if m := s.TotalMass(); m != 4 {
		t.Errorf("TotalMass = %g, want 4", m)
	}
	com := s.CenterOfMass()
	if math.Abs(com[0]-0.625) > 1e-12 {
		t.Errorf("COM x = %g, want 0.625", com[0])
	}
}

func TestMeanVelocity(t *testing.T) {
	s := Set{
		{Pos: [3]float64{0.1, 0.1, 0.1}, Vel: [3]float64{100, 0, 0}, Mass: 1, ID: 1},
		{Pos: [3]float64{0.2, 0.2, 0.2}, Vel: [3]float64{-100, 50, 0}, Mass: 1, ID: 2},
	}
	v := s.MeanVelocity()
	if v[0] != 0 || v[1] != 25 {
		t.Errorf("MeanVelocity = %v, want [0 25 0]", v)
	}
}

func TestValidate(t *testing.T) {
	good := Set{
		{Pos: [3]float64{0.1, 0.2, 0.3}, Mass: 1, ID: 1},
		{Pos: [3]float64{0.4, 0.5, 0.6}, Mass: 2, ID: 2},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	cases := map[string]Set{
		"out of box":    {{Pos: [3]float64{1.5, 0, 0}, Mass: 1, ID: 1}},
		"negative mass": {{Pos: [3]float64{0.1, 0, 0}, Mass: -1, ID: 1}},
		"zero mass":     {{Pos: [3]float64{0.1, 0, 0}, Mass: 0, ID: 1}},
		"nan velocity":  {{Pos: [3]float64{0.1, 0, 0}, Vel: [3]float64{math.NaN(), 0, 0}, Mass: 1, ID: 1}},
		"duplicate id": {
			{Pos: [3]float64{0.1, 0, 0}, Mass: 1, ID: 7},
			{Pos: [3]float64{0.2, 0, 0}, Mass: 1, ID: 7},
		},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestWrapAll(t *testing.T) {
	s := Set{{Pos: [3]float64{1.5, -0.25, 0.5}, Mass: 1, ID: 1}}
	s.WrapAll()
	want := [3]float64{0.5, 0.75, 0.5}
	for d := 0; d < 3; d++ {
		if math.Abs(s[0].Pos[d]-want[d]) > 1e-12 {
			t.Errorf("dim %d: %g, want %g", d, s[0].Pos[d], want[d])
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("wrapped set should validate: %v", err)
	}
}

func TestSortByID(t *testing.T) {
	s := Set{{ID: 3, Mass: 1}, {ID: 1, Mass: 1}, {ID: 2, Mass: 1}}
	s.SortByID()
	for i, want := range []int64{1, 2, 3} {
		if s[i].ID != want {
			t.Errorf("position %d: ID %d, want %d", i, s[i].ID, want)
		}
	}
}

func TestClone(t *testing.T) {
	s := Set{{Pos: [3]float64{0.1, 0.2, 0.3}, Mass: 1, ID: 1}}
	c := s.Clone()
	c[0].Pos[0] = 0.9
	if s[0].Pos[0] != 0.1 {
		t.Error("Clone shares backing storage with the original")
	}
}

func TestSelectSphere(t *testing.T) {
	s := Set{
		{Pos: [3]float64{0.5, 0.5, 0.5}, Mass: 1, ID: 1},
		{Pos: [3]float64{0.58, 0.5, 0.5}, Mass: 1, ID: 2},
		{Pos: [3]float64{0.9, 0.5, 0.5}, Mass: 1, ID: 3},
	}
	got := s.SelectSphere([3]float64{0.5, 0.5, 0.5}, 0.1)
	if len(got) != 2 {
		t.Fatalf("selected %d particles, want 2", len(got))
	}
	// Periodic selection: a sphere at the origin catches particles near 1.
	edge := Set{{Pos: [3]float64{0.98, 0.0, 0.0}, Mass: 1, ID: 4}}
	if got := edge.SelectSphere([3]float64{0.01, 0, 0}, 0.05); len(got) != 1 {
		t.Error("SelectSphere must use minimum-image distances")
	}
}

// CenterOfMass returns the mass-weighted mean position. It does not attempt
// to unwrap periodic images; callers holding a compact group (e.g. a halo)
// should recentre with WrapAround first.
func (s Set) CenterOfMass() [3]float64 {
	var c [3]float64
	var m float64
	for i := range s {
		for d := 0; d < 3; d++ {
			c[d] += s[i].Mass * s[i].Pos[d]
		}
		m += s[i].Mass
	}
	if m > 0 {
		for d := 0; d < 3; d++ {
			c[d] /= m
		}
	}
	return c
}

// MeanVelocity returns the mass-weighted mean peculiar velocity.
func (s Set) MeanVelocity() [3]float64 {
	var v [3]float64
	var m float64
	for i := range s {
		for d := 0; d < 3; d++ {
			v[d] += s[i].Mass * s[i].Vel[d]
		}
		m += s[i].Mass
	}
	if m > 0 {
		for d := 0; d < 3; d++ {
			v[d] /= m
		}
	}
	return v
}

// SelectSphere returns the particles within comoving radius r (box units) of
// center, using minimum-image distances. HaloMaker uses it to cut out the
// Lagrangian region around a halo for re-simulation.
func (s Set) SelectSphere(center [3]float64, r float64) Set {
	var out Set
	r2 := r * r
	for i := range s {
		if Dist2(s[i].Pos, center) <= r2 {
			out = append(out, s[i])
		}
	}
	return out
}
