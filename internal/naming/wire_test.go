package naming

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

// wireMethods are the naming service's methods and their bodies, fresh.
var wireMethods = []wiretest.Method{
	{Name: "ResolveAll", Req: func() rpc.WireBody { return &resolveAllRequest{} }, Rep: func() rpc.WireBody { return &resolveAllReply{} }},
	{Name: "Register", Req: func() rpc.WireBody { return &Entry{} }},
	{Name: "Resolve", Req: func() rpc.WireBody { return new(rpc.Text) }, Rep: func() rpc.WireBody { return &Entry{} }},
}

func TestResolveAllBodiesRoundTrip(t *testing.T) {
	for _, fresh := range wiretest.Bodies(t, wireMethods, NewService().methods()) {
		filled := fresh()
		wiretest.Fill(filled)
		for _, in := range []rpc.WireBody{fresh(), filled} {
			wire := wiretest.RoundTrip(t, in, fresh())
			wiretest.RefuseDamaged(t, wire, fresh)
		}
	}
	wiretest.RoundTrip(t, &resolveAllRequest{Names: []string{"", "Nançy-1", ""}}, &resolveAllRequest{})
	wiretest.RoundTrip(t, &resolveAllReply{Entries: []Entry{{}, {Name: "n"}}}, &resolveAllReply{})
}

// FuzzResolveAllBodies feeds arbitrary bytes to the decoder of every body
// of the naming service, ResolveAll's first.
func FuzzResolveAllBodies(f *testing.F) {
	bodies := wiretest.Bodies(f, wireMethods, NewService().methods())
	filled := &resolveAllReply{}
	wiretest.Fill(filled)
	wire, _ := rpc.Encode(filled)
	for kind := range bodies[:2] {
		f.Add(uint8(kind), wire)
		f.Add(uint8(kind), wire[:len(wire)-1])
		f.Add(uint8(kind), append(wire[:len(wire):len(wire)], 0))
		f.Add(uint8(kind), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(uint8(kind), []byte{})
	}
	wiretest.Seed(f, bodies)
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		wiretest.FuzzDecode(t, data, bodies[int(kind)%len(bodies)]())
	})
}
