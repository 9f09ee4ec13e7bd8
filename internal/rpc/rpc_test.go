package rpc

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func echoHandler() Handler {
	return Methods{
		"Echo": Typed(func(s *Text) (*Text, error) { return text("echo:" + string(*s)), nil }),
		"Fail": func([]byte) (WireBody, error) {
			return nil, errors.New("deliberate failure")
		},
	}.Handler()
}

// text is a Text body.
func text(s string) *Text { return (*Text)(&s) }

// The bodies of one value, and a map, come back as they were sent.
func TestEncodeDecode(t *testing.T) {
	in := []WireBody{text("zoé"), text(""), new(Int), new(Float), new(Bool)}
	n, f, b := Int(math.MinInt64), Float(math.Inf(-1)), Bool(true)
	in = append(in, &n, &f, &b, &mapBody{M: map[string]Int{"b": 2, "a": -1, "": 0}})
	for _, body := range in {
		raw, err := Encode(body)
		if err != nil {
			t.Fatal(err)
		}
		out := reflectNew(body)
		if err := Decode(raw, out); err != nil {
			t.Fatalf("%T: %v", body, err)
		}
		if again, _ := Encode(out); string(again) != string(raw) || len(raw) != body.WireSize() {
			t.Errorf("%T: %x came back as %x (WireSize %d)", body, raw, again, body.WireSize())
		}
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

	var out Text
	if err := Call(addr, "obj", "Echo", text("hello"), &out); err != nil {
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
	var out Text
	if err := Call("tcp:"+addr, "obj", "Echo", text("x"), &out); err != nil {
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
	var out Text
	if err := Call(addr, "obj", "Echo", text("inproc"), &out); err != nil {
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
	if err := Call(addr, "ghost", "Echo", text("x"), nil); err == nil {
		t.Error("missing object should fail")
	}
	if err := Call(addr, "obj", "Ghost", text("x"), nil); err == nil {
		t.Error("missing method should fail")
	}
	if err := Call("local:ghost-server", "obj", "Echo", text("x"), nil); err == nil {
		t.Error("missing local server should fail")
	}
}

func TestDialFailure(t *testing.T) {
	// A port that is almost certainly closed.
	err := Call("127.0.0.1:1", "obj", "Echo", text("x"), nil)
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
			var out Text
			if err := Call(addr, "obj", "Echo", text(fmt.Sprint(i)), &out); err != nil {
				errs[i] = err
				return
			}
			if string(out) != fmt.Sprintf("echo:%d", i) {
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
	if err := Call(addr, "obj", "Echo", text("x"), nil); err == nil {
		t.Error("unregistered object should fail")
	}
}

func TestCloseRemovesLocal(t *testing.T) {
	s := NewServer()
	addr, _ := ServeLocal("test-close", s)
	s.Close()
	if err := Call(addr, "obj", "Echo", text("x"), nil); err == nil {
		t.Error("closed server should not serve local calls")
	}
}

func TestNilInOut(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.RegisterMethods("obj", Methods{
		"Ping": func(body []byte) (WireBody, error) {
			if body != nil {
				return nil, errors.New("expected empty body")
			}
			return nil, nil
		},
	})
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
