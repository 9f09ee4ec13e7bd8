package naming

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

// wireMethods are the naming service's methods and their bodies, fresh.
var wireMethods = []wiretest.Method{
	{Name: "Register", Req: func() rpc.WireBody { return &Entry{} }},
	{Name: "Resolve", Req: func() rpc.WireBody { return new(rpc.Text) }, Rep: func() rpc.WireBody { return &Entry{} }},
}

func TestNamingBodiesRoundTrip(t *testing.T) {
	for _, fresh := range wiretest.Bodies(t, wireMethods, NewService().methods()) {
		filled := fresh()
		wiretest.Fill(filled)
		for _, in := range []rpc.WireBody{fresh(), filled} {
			wire := wiretest.RoundTrip(t, in, fresh())
			wiretest.RefuseDamaged(t, wire, fresh)
		}
	}
	wiretest.RoundTrip(t, &Entry{Name: "Nançy-1", Kind: "SeD"}, &Entry{})
}

// FuzzResolveAllBodies feeds arbitrary bytes to the decoder of every body
// of the naming service, the entry first. It keeps the name it had while
// ResolveAll's bodies led it, so that its seeds keep theirs.
func FuzzResolveAllBodies(f *testing.F) {
	bodies := wiretest.Bodies(f, wireMethods, NewService().methods())
	filled := &Entry{}
	wiretest.Fill(filled)
	wire, _ := rpc.Encode(filled)
	for kind := range bodies {
		f.Add(uint8(kind), wire)
		f.Add(uint8(kind), wire[:len(wire)-1])
		f.Add(uint8(kind), append(wire[:len(wire):len(wire)], 0))
		f.Add(uint8(kind), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(uint8(kind), []byte{0, 0, 0, 1, 'n', 0, 0, 0, 0})
		f.Add(uint8(kind), []byte{})
	}
	wiretest.Seed(f, bodies)
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		wiretest.FuzzDecode(t, data, bodies[int(kind)%len(bodies)]())
	})
}

// TestWireLayoutLock pins the layouts of the naming bodies to the frame
// version that carries them.
func TestWireLayoutLock(t *testing.T) {
	wiretest.Lock(t, map[int]string{
		4: "df44f025252adc7babb0d7e4",
		5: "b0fd312f90d91d25eea1d3e5",
	}, wireMethods)
}
