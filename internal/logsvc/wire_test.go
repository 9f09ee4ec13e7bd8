package logsvc

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

// wireMethods are the bus's methods and their bodies, fresh.
var wireMethods = []wiretest.Method{
	{Name: "Publish", Req: func() rpc.WireBody { return &Event{} }},
	{Name: "HistorySince", Req: func() rpc.WireBody { return new(rpc.Int) }, Rep: func() rpc.WireBody { return &events{} }},
	{Name: "Stats", Rep: func() rpc.WireBody { return &BusStats{} }},
}

func TestBusBodiesRoundTrip(t *testing.T) {
	for _, fresh := range wiretest.Bodies(t, wireMethods, New(1).methods()) {
		filled := fresh()
		wiretest.Fill(filled)
		for _, in := range []rpc.WireBody{fresh(), filled} {
			wire := wiretest.RoundTrip(t, in, fresh())
			wiretest.RefuseDamaged(t, wire, fresh)
		}
	}
}

func FuzzBusBodies(f *testing.F) {
	bodies := wiretest.Bodies(f, wireMethods, New(1).methods())
	wiretest.Seed(f, bodies)
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		wiretest.FuzzDecode(t, data, bodies[int(kind)%len(bodies)]())
	})
}

// TestWireLayoutLock pins the layouts of the bus bodies to the frame version
// that carries them.
func TestWireLayoutLock(t *testing.T) {
	wiretest.Lock(t, map[int]string{
		4: "6cd04a002ce8b0b039ac7222",
		5: "6cd04a002ce8b0b039ac7222",
	}, wireMethods)
}
