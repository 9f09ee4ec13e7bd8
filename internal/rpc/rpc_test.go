package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func echoHandler() Handler {
	return HandlerFunc(map[string]func([]byte) ([]byte, error){
		"Echo": func(body []byte) ([]byte, error) {
			var s string
			if err := Decode(body, &s); err != nil {
				return nil, err
			}
			return Encode("echo:" + s)
		},
		"Fail": func([]byte) ([]byte, error) {
			return nil, errors.New("deliberate failure")
		},
	})
}

func TestEncodeDecode(t *testing.T) {
	type payload struct {
		A int
		B string
		C []float64
	}
	in := payload{A: 7, B: "x", C: []float64{1, 2}}
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || len(out.C) != 2 {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

func TestTCPCall(t *testing.T) {
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var out string
	if err := Call(addr, "obj", "Echo", "hello", &out); err != nil {
		t.Fatal(err)
	}
	if out != "echo:hello" {
		t.Errorf("got %q", out)
	}
}

func TestTCPCallWithScheme(t *testing.T) {
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out string
	if err := Call("tcp:"+addr, "obj", "Echo", "x", &out); err != nil {
		t.Fatal(err)
	}
	if out != "echo:x" {
		t.Errorf("got %q", out)
	}
}

func TestLocalCall(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, err := ServeLocal("test-local-call", s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(addr, "local:") {
		t.Fatalf("address %q", addr)
	}
	var out string
	if err := Call(addr, "obj", "Echo", "inproc", &out); err != nil {
		t.Fatal(err)
	}
	if out != "echo:inproc" {
		t.Errorf("got %q", out)
	}
}

func TestLocalDuplicateName(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	if _, err := ServeLocal("dup", s); err != nil {
		t.Fatal(err)
	}
	if _, err := ServeLocal("dup", NewServer()); err == nil {
		t.Error("duplicate local name should fail")
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, _ := ServeLocal("test-err", s)
	err := Call(addr, "obj", "Fail", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("got %v", err)
	}
}

func TestNoSuchObjectAndMethod(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, _ := ServeLocal("test-missing", s)
	if err := Call(addr, "ghost", "Echo", "x", nil); err == nil {
		t.Error("missing object should fail")
	}
	if err := Call(addr, "obj", "Ghost", "x", nil); err == nil {
		t.Error("missing method should fail")
	}
	if err := Call("local:ghost-server", "obj", "Echo", "x", nil); err == nil {
		t.Error("missing local server should fail")
	}
}

func TestDialFailure(t *testing.T) {
	// A port that is almost certainly closed.
	err := Call("127.0.0.1:1", "obj", "Echo", "x", nil)
	if err == nil {
		t.Error("expected dial failure")
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 50
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out string
			if err := Call(addr, "obj", "Echo", fmt.Sprint(i), &out); err != nil {
				errs[i] = err
				return
			}
			if out != fmt.Sprintf("echo:%d", i) {
				errs[i] = fmt.Errorf("mismatch: %q", out)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestUnregister(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", echoHandler())
	addr, _ := ServeLocal("test-unreg", s)
	s.Unregister("obj")
	if err := Call(addr, "obj", "Echo", "x", nil); err == nil {
		t.Error("unregistered object should fail")
	}
}

func TestCloseRemovesLocal(t *testing.T) {
	s := NewServer()
	addr, _ := ServeLocal("test-close", s)
	s.Close()
	if err := Call(addr, "obj", "Echo", "x", nil); err == nil {
		t.Error("closed server should not serve local calls")
	}
}

func TestNilInOut(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", HandlerFunc(map[string]func([]byte) ([]byte, error){
		"Ping": func(body []byte) ([]byte, error) {
			if body != nil {
				return nil, errors.New("expected empty body")
			}
			return Encode("pong")
		},
	}))
	addr, _ := ServeLocal("test-nil", s)
	if err := Call(addr, "obj", "Ping", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// Unregister removes an object.
func (s *Server) Unregister(object string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, object)
}
