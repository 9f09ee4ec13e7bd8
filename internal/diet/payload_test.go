package diet

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// The solve leg by bytes, over loopback TCP: what ships a file argument to a
// SeD and brings one back. Argument data is handed to the socket from where
// it is (rpc.Writer.Bytes), so a call costs the two frames it is read into
// and nothing per byte on the way out.

const (
	payloadIn  = 4 << 20
	payloadOut = 1 << 20
)

// payloadLeg deploys one SeD behind an MA over TCP, serving "payload" (IN
// file → OUT file, always the same out bytes) and "inout" (IN file, INOUT
// file: flip asks for the INOUT bytes to be inverted in place, otherwise they
// go back untouched). It returns a client and the server list of a finding
// phase already done, so that a call with WithServers is the solve leg alone.
func payloadLeg(t testing.TB, out []byte) (*Client, *SubmitReply) {
	t.Helper()
	payload, err := NewProfileDesc("payload", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload.Set(0, File, Char)
	payload.Set(1, File, Char)
	inout, err := NewProfileDesc("inout", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	inout.Set(0, File, Char)
	inout.Set(1, File, Char)
	d, err := Deploy(DeploymentSpec{
		MAName: "MA-payload",
		SeDs: []SeDSpec{{
			Name: "SeD-payload", Parent: "MA-payload", Capacity: 4, PowerGFlops: 1,
			Services: []ServiceSpec{
				{Desc: payload, Solve: func(p *Profile) error {
					return p.SetFileBytes(1, "out.bin", out, Volatile)
				}},
				{Desc: inout, Solve: func(p *Profile) error {
					_, flip, err := p.FileBytes(0)
					if err != nil || len(flip) == 0 {
						return err
					}
					_, data, err := p.FileBytes(1)
					for i := range data {
						data[i] = ^data[i]
					}
					return err
				}},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	servers, _, err := client.FindServers("payload", 0)
	if err != nil || len(servers.Estimates) != 1 {
		t.Fatalf("finding the one server: %v, %v", servers, err)
	}
	return client, servers
}

func payloadCall(t testing.TB, client *Client, servers *SubmitReply, in, wantOut []byte) {
	t.Helper()
	p, err := NewProfile("payload", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFileBytes(0, "in.bin", in, Volatile)
	if _, err := client.Call(p, WithServers(servers, 0)); err != nil {
		t.Fatal(err)
	}
	if _, got, err := p.FileBytes(1); err != nil || !bytes.Equal(got, wantOut) {
		t.Fatalf("reply carries %d bytes (%v), want the %d the solver set", len(got), err, len(wantOut))
	}
}

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)
	}
	return b
}

func BenchmarkSolveLegPayloadTCP(b *testing.B) {
	in, out := patterned(payloadIn, 1), patterned(payloadOut, 2)
	client, servers := payloadLeg(b, out)
	payloadCall(b, client, servers, in, out) // dial outside the timer
	b.SetBytes(payloadIn + payloadOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloadCall(b, client, servers, in, out)
	}
}

// A steady call allocates the frame the client reads the reply into, and
// change: the SeD reads the request into the buffer the call before it
// returned. A copy of the input or of the output on either side (a flat
// encoding, a reply rebuilt from its arguments), or a request frame no
// longer recycled, would put it past out + 1 MiB. It is counted on one P,
// where the buffer a request returns is the one the next draws (on more, a
// call that lands on another P can miss it: BenchmarkSolveLegPayloadTCP
// reads about 1.3 MB/op at -cpu 2). Under the race detector, whose pool
// drops buffers at random, a call may read its request into a fresh frame:
// there the bound is in + out + 1 MiB.
func TestSolveLegDoesNotCopyArgumentData(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in, out := patterned(payloadIn, 1), patterned(payloadOut, 2)
	client, servers := payloadLeg(t, out)
	payloadCall(t, client, servers, in, out)
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		payloadCall(t, client, servers, in, out)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	limit := uint64(payloadOut + 1<<20)
	if raceDetector {
		limit += payloadIn
	}
	if perCall >= limit {
		t.Errorf("a call with %d bytes in and %d out allocates %d bytes, want less than %d", payloadIn, payloadOut, perCall, limit)
	}
	if !bytes.Equal(in, patterned(payloadIn, 1)) || !bytes.Equal(out, patterned(payloadOut, 2)) {
		t.Error("the caller's input or the solver's output changed under the calls")
	}
}

// An INOUT argument the solver leaves alone goes back as a segment that is
// the request frame's own memory; one it rewrites in place goes back from
// that frame too. Concurrent callers (run under -race) each own their frames:
// nobody's reply shows another's bytes, and the caller's buffer — sent in
// place, replaced in the profile by the reply's — is never written.
func TestInOutReplyAliasesTheRequestFrame(t *testing.T) {
	client, servers := payloadLeg(t, nil)
	const callers, size = 4, 256 << 10
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := patterned(size, byte(c))
			for i := 0; i < 6; i++ {
				flip := i%2 == 1
				p, err := NewProfile("inout", 0, 1, 1)
				if err != nil {
					t.Error(err)
					return
				}
				var ask []byte
				if flip {
					ask = []byte{1}
				}
				p.SetFileBytes(0, "flip", ask, Volatile)
				p.SetFileBytes(1, "data.bin", mine, Volatile)
				if _, err := client.Call(p, WithServers(servers, 0)); err != nil {
					t.Error(err)
					return
				}
				want := patterned(size, byte(c))
				if flip {
					for k := range want {
						want[k] = ^want[k]
					}
				}
				if _, got, _ := p.FileBytes(1); !bytes.Equal(got, want) {
					t.Errorf("caller %d call %d (flip %v): the INOUT argument came back wrong", c, i, flip)
				}
				if !bytes.Equal(mine, patterned(size, byte(c))) {
					t.Errorf("caller %d call %d: the caller's own buffer was written", c, i)
				}
			}
		}(c)
	}
	wg.Wait()
}
