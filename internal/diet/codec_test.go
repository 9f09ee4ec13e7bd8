package diet

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/scheduler"
)

// typedBodies are the bodies of this package with a hand-written layout,
// fresh. The decoders read bytes off a socket; the tests below treat them so.
var typedBodies = []func() rpc.WireBody{
	func() rpc.WireBody { return &Profile{} },
	func() rpc.WireBody { return &SolveReply{} },
	func() rpc.WireBody { return &EstimateQuery{} },
	func() rpc.WireBody { return &EstimateReply{} },
	func() rpc.WireBody { return &CollectRequest{} },
	func() rpc.WireBody { return &CollectReply{} },
	func() rpc.WireBody { return &SubmitRequest{} },
	func() rpc.WireBody { return &SubmitReply{} },
}

// filledBody is a body with every field set, made valid where the decoder
// checks more than the layout.
func filledBody(fresh func() rpc.WireBody) rpc.WireBody {
	body := fresh()
	wiretest.Fill(body)
	if p, ok := body.(*Profile); ok {
		p.LastIn, p.LastInOut, p.LastOut = 0, 0, len(p.Args)-1
	}
	return body
}

func TestTypedBodiesRoundTrip(t *testing.T) {
	noArgs, _ := NewProfile("svc", -1, -1, -1)
	outOnly, _ := NewProfile("svc", -1, -1, 1)
	mixed, _ := NewProfile("zoé☃", 1, 2, 3)
	mixed.SetFileBytes(0, "naïve.nml", []byte{}, Volatile) // empty, not nil
	mixed.SetFileRef(1, "snap", "SeD/persist/3/1", Sticky)
	mixed.SetMatrixDouble(2, 1, 2, []float64{math.NaN(), math.Inf(-1)}, Persistent)
	mixed.WorkGFlops = math.Inf(1)
	mixed.RequestID = "c1-beef-7"
	oddEst := scheduler.Estimate{
		ServerID: "Nançy-1", LastSolveSeconds: -1, PowerGFlops: math.Inf(1),
		ForecastConfidence: math.Float64frombits(0x7ff8000000000abc), Running: math.MinInt64,
	}
	samples := []rpc.WireBody{
		noArgs, outOnly, mixed,
		&SolveReply{Timing: solveTiming{QueueWaitMS: math.NaN(), ComputeMS: -0.5}, Args: mixed.Args[2:]},
		&EstimateQuery{Service: "s", DataIDs: []string{"", "id"}},
		&EstimateReply{Est: oddEst},
		&CollectRequest{Limit: -1, DataIDs: []string{}},
		&CollectReply{Estimates: []scheduler.Estimate{{}, oddEst}},
		&SubmitRequest{WorkGFlops: math.Inf(-1), Seq: math.MaxInt64},
		&SubmitReply{Servers: []ServerRef{{}, {Name: "n"}}},
		&SubmitReply{Estimates: []scheduler.Estimate{oddEst}},
	}
	for _, fresh := range typedBodies {
		samples = append(samples, filledBody(fresh))
		if _, isProfile := fresh().(*Profile); !isProfile {
			samples = append(samples, fresh()) // the zero value: every list nil
		}
	}
	for _, in := range samples {
		fresh := func() rpc.WireBody {
			return reflect.New(reflect.TypeOf(in).Elem()).Interface().(rpc.WireBody)
		}
		wire := wiretest.RoundTrip(t, in, fresh())
		wiretest.RefuseDamaged(t, wire, fresh)
	}
}

// A profile off the wire is held to NewProfile's invariant, because SeD.Solve
// and ProfileDesc.Matches index the arguments by the three indices.
func TestProfileDecoderChecksIndices(t *testing.T) {
	for _, bad := range []*Profile{
		{Service: "s"}, // indices 0,0,0 and no argument
		{Service: "s", LastIn: 5, LastInOut: 5, LastOut: 5, Args: make([]Arg, 2)},
		{Service: "s", LastIn: -2, LastInOut: -1, LastOut: -1},
		{Service: "s", LastIn: 1, LastInOut: 0, LastOut: 1, Args: make([]Arg, 2)},
		{Service: "s", LastIn: -1, LastInOut: -1, LastOut: -1, Args: make([]Arg, 1)},
	} {
		wire, err := rpc.Encode(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := rpc.Decode(wire, &Profile{}); err == nil {
			t.Errorf("profile (%d,%d,%d) with %d arguments was decoded", bad.LastIn, bad.LastInOut, bad.LastOut, len(bad.Args))
		}
	}
}

// The 4 MiB of a file argument are not copied out of the frame.
func TestDecodedArgDataAliasesTheBody(t *testing.T) {
	p, _ := NewProfile("payload", 0, 0, 1)
	p.SetFileBytes(0, "in.bin", make([]byte, 4<<20), Volatile)
	wire, err := rpc.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Profile
	if err := rpc.Decode(wire, &got); err != nil {
		t.Fatal(err)
	}
	data := got.Args[0].Data
	data[0], data[len(data)-1] = 0xAB, 0xCD
	if strings.Count(string(wire), "\xAB") != 1 || strings.Count(string(wire), "\xCD") != 1 {
		t.Error("decoded file data is a copy of the body, not a view of it")
	}
	if cap(data) != len(data) {
		t.Errorf("decoded data has %d spare bytes of the body behind it", cap(data)-len(data))
	}
}

// segmentProfiles are profiles whose file arguments lie on both sides of
// rpc.SegmentCut, at the places where the segmenting encoder has an edge: the
// cut itself, several large arguments in one profile, a large argument first
// and one last (nothing of the head behind it), each with the number of pieces
// it goes to a socket in.
func segmentProfiles(t testing.TB) []segmentCase {
	t.Helper()
	const cut = rpc.SegmentCut
	build := func(sizes ...int) *Profile {
		p, err := NewProfile("segments", len(sizes)-1, len(sizes)-1, len(sizes))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range sizes {
			data := make([]byte, n)
			for k := range data {
				data[k] = byte(i + k)
			}
			p.SetFileBytes(i, "f", data, Volatile)
		}
		p.SetScalarInt(len(sizes), 7, Volatile) // a small argument behind the files
		return p
	}
	largeLast := build(cut+1, 16)
	largeLast.Args = largeLast.Args[:2] // drop the scalar: the data of the last argument ends the body
	largeLast.Args[0], largeLast.Args[1] = largeLast.Args[1], largeLast.Args[0]
	largeLast.LastIn, largeLast.LastInOut, largeLast.LastOut = 1, 1, 1
	return []segmentCase{
		{build(0), 1},
		{build(cut - 1), 1},
		{build(cut), 3},
		{build(cut + 1), 3},
		{build(cut-1, cut, cut-1), 3},
		{build(cut-200, cut-200), 1}, // longer than the cut as a whole, no field that is
		{largeLast, 2},
		{build(4*cut, 3, 1<<20, cut), 7},
		{build(1<<20, 1<<20), 5},
	}
}

type segmentCase struct {
	p      *Profile
	pieces int
}

// The body a socket is given is the flat encoding cut at every argument of
// rpc.SegmentCut bytes or more, and those arguments are the caller's own
// memory, not copies.
func TestLargeArgDataIsSentInPlace(t *testing.T) {
	for _, c := range segmentProfiles(t) {
		p, pieces := c.p, c.pieces
		wire := wiretest.RoundTrip(t, p, &Profile{})
		segs := rpc.Segments(p)
		if len(segs) != pieces {
			t.Errorf("%d arguments, %d bytes: %d segments, want %d", len(p.Args), len(wire), len(segs), pieces)
			continue
		}
		next := 0
		for _, a := range p.Args {
			if len(a.Data) < rpc.SegmentCut {
				continue
			}
			for next < len(segs) && &segs[next][0] != &a.Data[0] {
				next++
			}
			if next == len(segs) || len(segs[next]) != len(a.Data) {
				t.Errorf("an argument of %d bytes is not a segment of its own", len(a.Data))
			}
		}
		reply := &SolveReply{Args: p.Args}
		wiretest.RoundTrip(t, reply, &SolveReply{})
		if got := len(rpc.Segments(reply)); got != pieces {
			t.Errorf("the same arguments in a solve reply: %d segments, want %d", got, pieces)
		}
	}
}

// FuzzTypedBodies feeds arbitrary bytes to every decoder of this package:
// error or value, never a panic, and a value encodes back to the same bytes.
func FuzzTypedBodies(f *testing.F) {
	for kind, fresh := range typedBodies {
		wire, err := rpc.Encode(filledBody(fresh))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), wire)
		f.Add(uint8(kind), wire[:len(wire)/2])
		f.Add(uint8(kind), append(wire[:len(wire):len(wire)], 0))
		f.Add(uint8(kind), []byte{})
		// A count claiming more elements than there are bytes, wherever in
		// the body a list starts.
		for at := 0; at+4 <= len(wire); at += 4 {
			claim := append([]byte(nil), wire...)
			binary.BigEndian.PutUint32(claim[at:], math.MaxUint32)
			f.Add(uint8(kind), claim)
		}
	}
	// Arguments around rpc.SegmentCut, as a profile and as a solve reply
	// (kinds 0 and 1), but for the megabyte ones, which would only slow the
	// mutator down; added last, so the seeds above keep their numbers.
	for _, c := range segmentProfiles(f) {
		for kind, body := range []rpc.WireBody{c.p, &SolveReply{Args: c.p.Args}} {
			if body.WireSize() > 1<<16 {
				continue
			}
			wire, err := rpc.Encode(body)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(kind), wire)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		body := typedBodies[int(kind)%len(typedBodies)]()
		decoded := wiretest.FuzzDecode(t, data, body)
		if p, ok := body.(*Profile); ok && decoded && len(p.Args) != p.LastOut+1 {
			t.Fatalf("decoded a profile with LastOut %d and %d arguments", p.LastOut, len(p.Args))
		}
	})
}

// serveFrame hands an empty body to the handler as nil; for a method that
// takes a typed request that is an error, not a zero request.
func TestTypedRequestsRefuseAnEmptyBody(t *testing.T) {
	d := newAPIDeployment(t, "MA-empty")
	sed := d.SeDs[0]
	for _, c := range []struct{ addr, object, method string }{
		{d.MA.Addr(), "agent:" + d.MA.Name(), "Submit"},
		{d.MA.Addr(), "agent:" + d.MA.Name(), "Collect"},
		{d.LAs[0].Addr(), "agent:" + d.LAs[0].Name(), "Collect"},
		{sed.Addr(), "sed:" + sed.Name(), "Estimate"},
		{sed.Addr(), "sed:" + sed.Name(), "Solve"},
		{d.NamingAddr, naming.ObjectName, "ResolveAll"},
	} {
		for _, body := range [][]byte{nil, {0, 0}} {
			_, err := rpc.Invoke(c.addr, c.object, c.method, body)
			if err == nil || !strings.Contains(err.Error(), rpc.ErrBody.Error()) {
				t.Errorf("%s.%s with a %d byte body: %v, want a malformed-body error", c.object, c.method, len(body), err)
			}
		}
	}
}
