package diet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rpc"
)

// catService reads the file at argument 0 (IN) and returns its content as the
// text at argument 1 (OUT).
func catService() ServiceSpec {
	desc, err := NewProfileDesc("cat", 0, 0, 1)
	if err != nil {
		panic(err)
	}
	desc.Set(0, File, Char)
	desc.Set(1, Text, Char)
	return ServiceSpec{Desc: desc, Solve: func(p *Profile) error {
		_, content, err := p.FileBytes(0)
		if err != nil {
			return err
		}
		return p.SetString(1, string(content), Volatile)
	}}
}

func catDeployment(t *testing.T, ma string) (*Deployment, *Client) {
	t.Helper()
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: ma, LAs: []string{"LA1"},
		SeDs:  []SeDSpec{{Name: "SeD-cat", Parent: "LA1", Services: []ServiceSpec{catService()}}},
		Local: true,
	})
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	return d, client
}

// A call brings back the INOUT/OUT arguments only: what the caller passed IN
// is still the caller's, the very same bytes, and an input passed by DataID
// is still a reference — not the bytes the server resolved it to.
func TestCallLeavesInputsToTheCaller(t *testing.T) {
	d, client := catDeployment(t, "MA-merge")
	input := []byte("the caller's own bytes")
	p, _ := NewProfile("cat", 0, 0, 1)
	p.SetFileBytes(0, "in.txt", input, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}
	if got := p.Args[0]; &got.Data[0] != &input[0] || got.FileName != "in.txt" {
		t.Errorf("IN argument was replaced by the reply: %+v", got)
	}
	if out, _ := p.StringArg(1); out != string(input) {
		t.Errorf("OUT argument = %q", out)
	}

	sed := d.SeDs[0]
	sed.mu.Lock()
	sed.dataStore["resident-1"] = []byte("bytes that live on the server")
	sed.mu.Unlock()
	ref, _ := NewProfile("cat", 0, 0, 1)
	if err := ref.SetFileRef(0, "snap", "resident-1", Persistent); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(ref); err != nil {
		t.Fatal(err)
	}
	if out, _ := ref.StringArg(1); out != "bytes that live on the server" {
		t.Errorf("OUT argument = %q: the server did not resolve the reference", out)
	}
	if got := ref.Args[0]; got.Data != nil || got.DataID != "resident-1" || got.Persist != Persistent {
		t.Errorf("the reference came back as %d bytes (%+v): persistence defeated", len(got.Data), got)
	}
}

// A server whose reply does not have the profile's INOUT/OUT arguments is a
// failed attempt — the next ranked server is tried, the profile is not
// overwritten — not a panic and not a silent replacement.
func TestCallRefusesAReplyOfAnotherShape(t *testing.T) {
	d, client := catDeployment(t, "MA-shape")
	for name, args := range map[string][]Arg{"Long": make([]Arg, 3), "Short": nil} {
		reply := &SolveReply{Args: args}
		fake := rpc.NewServer()
		fake.Register("sed:"+name, rpc.HandlerFunc(map[string]func([]byte) ([]byte, error){
			"Solve": func([]byte) ([]byte, error) { return rpc.Encode(reply) },
		}))
		addr, err := rpc.ServeLocal("fake-"+name, fake)
		if err != nil {
			t.Fatal(err)
		}
		defer fake.Close()
		liar := ServerRef{Name: name, Addr: addr}

		p, _ := NewProfile("cat", 0, 0, 1)
		p.SetFileBytes(0, "in.txt", []byte("x"), Volatile)
		// A one-server list is a bound call: nothing to fail over to.
		_, err = client.Call(p, WithServers(&SubmitReply{Servers: []ServerRef{liar}}, 0))
		if err == nil || !strings.Contains(err.Error(), "INOUT/OUT arguments") {
			t.Errorf("%s: call = %v, want the reply's shape refused", name, err)
		}
		if p.Args[1].Data != nil || len(p.Args) != 2 {
			t.Errorf("%s: the refused reply still changed the profile: %+v", name, p.Args)
		}
		honest := ServerRef{Name: d.SeDs[0].Name(), Addr: d.SeDs[0].Addr()}
		info, err := client.Call(p, WithServers(&SubmitReply{Servers: []ServerRef{liar, honest}}, 0))
		if err != nil || info.Server != honest.Name {
			t.Fatalf("%s: no failover past the refused reply: %+v, %v", name, info, err)
		}
		if out, _ := p.StringArg(1); out != "x" {
			t.Errorf("%s: OUT argument after failover = %q", name, out)
		}
	}
}

// Decoded argument data shares its frame, so what the SeD keeps beyond the
// call must be a copy: eight persistent bytes may not hold on to the 4 MiB
// frame they arrived in.
func TestPersistentStoreDoesNotPinTheFrame(t *testing.T) {
	rpc.ResetLocal()
	desc, _ := NewProfileDesc("keep", 0, 1, 1)
	desc.Set(0, File, Char)
	desc.Set(1, Scalar, Int)
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-pin", LAs: []string{"LA1"},
		SeDs: []SeDSpec{{Name: "SeD-pin", Parent: "LA1", Services: []ServiceSpec{
			{Desc: desc, Solve: func(*Profile) error { return nil }}, // the INOUT stays as it arrived
		}}},
		Local: true,
	})
	sed := d.SeDs[0]
	p, _ := NewProfile("keep", 0, 1, 1)
	p.SetFileBytes(0, "big.bin", make([]byte, 4<<20), Volatile)
	p.SetScalarInt(1, 0x0102030405060708, Persistent)
	want := bytes.Clone(p.Args[1].Data)
	frame, err := rpc.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rpc.Invoke(sed.Addr(), "sed:"+sed.Name(), "Solve", frame)
	if err != nil {
		t.Fatal(err)
	}
	var reply SolveReply
	if err := rpc.Decode(raw, &reply); err != nil || len(reply.Args) != 1 || reply.Args[0].DataID == "" {
		t.Fatalf("solve reply %+v, %v: want the one INOUT argument with its DataID", reply, err)
	}
	sed.mu.Lock()
	stored := sed.dataStore[reply.Args[0].DataID]
	sed.mu.Unlock()
	if cap(stored) != 8 {
		t.Errorf("stored datum has capacity %d, want 8", cap(stored))
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	if !bytes.Equal(stored, want) {
		t.Errorf("stored datum changed with the request frame (%x): it is a view of it", stored)
	}
}

// The call history is a ring: a client that lives as long as a gateway keeps
// the newest historyCap records, in completion order.
func TestClientHistoryIsBounded(t *testing.T) {
	_, client := catDeployment(t, "MA-ring")
	const calls = historyCap + 100
	for i := 0; i < calls; i++ {
		p, _ := NewProfile("cat", 0, 0, 1)
		p.SetFileBytes(0, "in.txt", nil, Volatile)
		if _, err := client.Call(p); err != nil {
			t.Fatal(err)
		}
	}
	h := client.History()
	if len(h) != historyCap {
		t.Fatalf("history holds %d records after %d calls, want %d", len(h), calls, historyCap)
	}
	for i, info := range h {
		if want := calls - historyCap + 1 + i; info.Seq != want {
			t.Fatalf("history[%d] is call %d, want %d (oldest kept first)", i, info.Seq, want)
		}
	}
}
