package naming

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

// resolveAllBodies are the two typed bodies of this package, fresh.
var resolveAllBodies = []func() rpc.WireBody{
	func() rpc.WireBody { return &resolveAllRequest{} },
	func() rpc.WireBody { return &resolveAllReply{} },
}

func TestResolveAllBodiesRoundTrip(t *testing.T) {
	for _, fresh := range resolveAllBodies {
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

func FuzzResolveAllBodies(f *testing.F) {
	filled := &resolveAllReply{}
	wiretest.Fill(filled)
	wire, _ := rpc.Encode(filled)
	for kind := range resolveAllBodies {
		f.Add(uint8(kind), wire)
		f.Add(uint8(kind), wire[:len(wire)-1])
		f.Add(uint8(kind), append(wire[:len(wire):len(wire)], 0))
		f.Add(uint8(kind), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(uint8(kind), []byte{})
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		wiretest.FuzzDecode(t, data, resolveAllBodies[int(kind)%len(resolveAllBodies)]())
	})
}
