package dataman

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

func freshItem() rpc.WireBody { return &Item{} }

// storeMethods and catalogMethods are the methods of a store and of a
// hosted catalog, and their bodies, fresh.
var (
	storeMethods = []wiretest.Method{
		{Name: "Get", Req: newText, Rep: freshItem},
		{Name: "Put", Req: freshItem},
		{Name: "Delete", Req: newText},
	}
	catalogMethods = []wiretest.Method{
		{Name: "AddNode", Req: newPair},
		{Name: "Publish", Req: func() rpc.WireBody { return &publishReq{} }},
		{Name: "Locate", Req: newText, Rep: func() rpc.WireBody { return &locateReply{} }},
		{Name: "SizeMB", Req: newText, Rep: func() rpc.WireBody { return &sizeReply{} }},
		{Name: "FetchTo", Req: newPair, Rep: freshItem},
		{Name: "HasReplica", Req: newPair, Rep: func() rpc.WireBody { return new(rpc.Bool) }},
	}
)

func newText() rpc.WireBody { return new(rpc.Text) }
func newPair() rpc.WireBody { return &textPair{} }

func TestItemBodyRoundTrip(t *testing.T) {
	filled := &Item{}
	wiretest.Fill(filled)
	large := &Item{ID: "SeD/persist/3/1", Mode: Sticky, Data: make([]byte, rpc.SegmentCut+1)}
	for _, in := range []*Item{{}, filled, large, {ID: "é☃", Mode: math.MinInt, Data: []byte{}}} {
		wire := wiretest.RoundTrip(t, in, &Item{})
		if len(wire) < 1<<10 {
			wiretest.RefuseDamaged(t, wire, freshItem)
		}
	}
	// Data of rpc.SegmentCut bytes or more goes to a socket from where it is.
	if segs := rpc.Segments(large); len(segs) != 2 || &segs[1][0] != &large.Data[0] {
		t.Errorf("a large item is %d segments, want its head and its own data", len(segs))
	}
}

// datamanBodies are the bodies of storeMethods and catalogMethods, checked
// against what a store and a catalog register.
func datamanBodies(t testing.TB) []func() rpc.WireBody {
	return append(wiretest.Bodies(t, storeMethods, NewStore("n").methods()), wiretest.Bodies(t, catalogMethods, NewCatalog().methods())...)
}

func TestDatamanBodiesRoundTrip(t *testing.T) {
	for _, fresh := range datamanBodies(t) {
		filled := fresh()
		wiretest.Fill(filled)
		for _, in := range []rpc.WireBody{fresh(), filled} {
			wire := wiretest.RoundTrip(t, in, fresh())
			wiretest.RefuseDamaged(t, wire, fresh)
		}
	}
}

// TestWireLayoutLock pins the layouts of the store and catalog bodies to the
// frame version that carries them.
func TestWireLayoutLock(t *testing.T) {
	wiretest.Lock(t, map[int]string{
		4: "ea9a27ff84fa6d69c9a27afb",
		5: "ea9a27ff84fa6d69c9a27afb",
	}, storeMethods, catalogMethods)
}

// FuzzItemBody feeds arbitrary bytes to the decoder of every body of a
// store and a catalog, the item first.
func FuzzItemBody(f *testing.F) {
	bodies := datamanBodies(f)
	filled := &Item{}
	wiretest.Fill(filled)
	wire, _ := rpc.Encode(filled)
	f.Add(uint8(1), wire)
	f.Add(uint8(1), wire[:len(wire)-1])
	f.Add(uint8(1), append(wire[:len(wire):len(wire)], 0))
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), []byte{})
	wiretest.Seed(f, bodies)
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		wiretest.FuzzDecode(t, data, bodies[int(kind)%len(bodies)]())
	})
}

// Two stores over real sockets: Put, Fetch and Replicate move an item's bytes
// from the memory they are in to the one frame the other side reads them
// into, so a transfer allocates about its size once, and what arrives is
// what was stored.
func TestDatamanItemsMoveAsSegmentsOverTCP(t *testing.T) {
	cat := NewCatalog()
	stores := map[string]*Store{}
	for _, node := range []string{"near", "far"} {
		st := NewStore(node)
		srv := rpc.NewServer()
		st.Serve(srv)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := cat.AddNode(node, addr); err != nil {
			t.Fatal(err)
		}
		stores[node] = st
	}
	const size = 4 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i) ^ byte(i>>9)
	}
	want := append([]byte(nil), data...)

	allocated := func(what string, op func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > size+size/2 {
			t.Errorf("%s of %d bytes allocated %d", what, size, grew)
		}
	}
	allocated("Put", func() {
		if err := cat.Put("big", "far", Persistent, data); err != nil {
			t.Fatal(err)
		}
	})
	allocated("Fetch", func() {
		it, err := cat.Fetch("big")
		if err != nil || it.ID != "big" || it.Mode != Persistent || !bytes.Equal(it.Data, want) {
			t.Fatalf("fetched %q (%v, %d bytes): %v", it.ID, it.Mode, len(it.Data), err)
		}
	})
	// Replicate is a Get from far and a Put to near: two frames.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := cat.Replicate("big", "near"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*size+size/2 {
		t.Errorf("Replicate of %d bytes allocated %d", size, grew)
	}
	for node, st := range stores {
		it, err := st.Get("big")
		if err != nil || !bytes.Equal(it.Data, want) {
			t.Errorf("store %s holds %d bytes of big (%v), want the %d stored", node, len(it.Data), err, size)
		}
	}
	if !bytes.Equal(data, want) {
		t.Error("the producer's buffer changed")
	}
}

// A stored item outlives the request it came in: the server reads later
// large requests into recycled buffers, so a store that kept a view of its
// Put's frame without that frame being left to it (rpc.Keep through Serve,
// a Handler's frames never reused) would serve their bytes.
func TestDatamanPutOutlivesItsFrame(t *testing.T) {
	// One P: the buffer a request returns is the one the next draws.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, how := range []string{"Serve", "Handler"} {
		st := NewStore("n")
		srv := rpc.NewServer()
		if how == "Serve" {
			st.Serve(srv)
		} else {
			srv.Register(ObjectName, st.Handler())
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		put := func(id string, fill byte) []byte {
			it := Item{ID: id, Mode: Persistent, Data: bytes.Repeat([]byte{fill}, 2*rpc.SegmentCut)}
			if err := rpc.Call(addr, ObjectName, "Put", &it, nil); err != nil {
				t.Fatal(err)
			}
			return it.Data
		}
		want := put("kept", 1)
		for i := 0; i < 8; i++ {
			put("more", byte(2+i)) // a frame of the same size, to fit the buffer
		}
		id := rpc.Text("kept")
		var got Item
		if err := rpc.Call(addr, ObjectName, "Get", &id, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Errorf("%s: the store serves %q… for an item stored as %q…", how, got.Data[:4], want[:4])
		}
		srv.Close()
	}
}

// The plain Handler (a server that encodes every reply itself) and Serve
// answer the same bytes.
func TestStoreHandlerAndServeAgree(t *testing.T) {
	st := NewStore("n")
	if err := st.Put("x", Sticky, make([]byte, 2*rpc.SegmentCut)); err != nil {
		t.Fatal(err)
	}
	plain, typed := rpc.NewServer(), rpc.NewServer()
	plain.Register(ObjectName, st.Handler())
	st.Serve(typed)
	var got [2]Item
	for i, srv := range []*rpc.Server{plain, typed} {
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		x, ghost := rpc.Text("x"), rpc.Text("ghost")
		if err := rpc.Call(addr, ObjectName, "Get", &x, &got[i]); err != nil {
			t.Fatal(err)
		}
		if err := rpc.Call(addr, ObjectName, "Get", &ghost, &Item{}); err == nil {
			t.Error("a missing item was served")
		}
	}
	if !wiretest.Equal(&got[0], &got[1]) || got[0].Mode != Sticky || len(got[0].Data) != 2*rpc.SegmentCut {
		t.Errorf("Handler answered %d bytes, Serve %d", len(got[0].Data), len(got[1].Data))
	}
}
