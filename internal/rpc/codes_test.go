package rpc

import (
	"errors"
	"fmt"
	"testing"
)

// Every failure code crosses both transports as its sentinel alone, with the
// server's text unchanged, and only the application's own failure stops a
// failover (Retryable).
func TestTransportFailureCodes(t *testing.T) {
	defer ResetLocal()
	inner := NewServer()
	inner.RegisterMethods("obj", Methods{
		"Busy": func([]byte) (WireBody, error) { return nil, fmt.Errorf("queue full: %w", ErrOverloaded) },
	})
	innerAddr, err := ServeLocal("codes-inner", inner)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.RegisterMethods("obj", Methods{
		"Fail":     func([]byte) (WireBody, error) { return nil, errors.New("solve diverged") },
		"Missing":  func([]byte) (WireBody, error) { return nil, fmt.Errorf("datum x not here: %w", ErrNoObject) },
		"Stopped":  func([]byte) (WireBody, error) { return nil, fmt.Errorf("stopped before solving: %w", ErrUnavailable) },
		"Busy":     func([]byte) (WireBody, error) { return nil, fmt.Errorf("queue full: %w", ErrOverloaded) },
		"Declared": func([]byte) (WireBody, error) { return nil, fmt.Errorf("bad input: %w", ErrApp) },
		// An error that holds ErrApp anywhere is app, whatever else it
		// holds, as Retryable reads it.
		"Outer":  func([]byte) (WireBody, error) { return nil, fmt.Errorf("%w: %w", ErrNoObject, ErrApp) },
		"Joined": func([]byte) (WireBody, error) { return nil, errors.Join(errors.New("log"), ErrOverloaded, ErrApp) },
		// A method that fails on another server's refusal passes its code on.
		"Relay": func([]byte) (WireBody, error) {
			return nil, fmt.Errorf("relaying: %w", Call(innerAddr, "obj", "Busy", nil, nil))
		},
	})
	tcp, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	local, err := ServeLocal("codes", s)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		object, method, text string
		code                 error
	}{
		{"obj", "Fail", "solve diverged", ErrApp},
		{"obj", "Declared", "bad input: rpc: application error", ErrApp},
		{"obj", "Missing", "datum x not here: rpc: no such object", ErrNoObject},
		{"obj", "Stopped", "stopped before solving: rpc: peer unavailable", ErrUnavailable},
		{"obj", "Busy", "queue full: rpc: server overloaded", ErrOverloaded},
		{"obj", "Outer", "rpc: no such object: rpc: application error", ErrApp},
		{"obj", "Joined", "log\nrpc: server overloaded\nrpc: application error", ErrApp},
		{"obj", "Relay", "relaying: queue full: rpc: server overloaded", ErrOverloaded},
		{"obj", "Ghost", `rpc: no such method "Ghost": rpc: no such object`, ErrNoObject},
		{"ghost", "Fail", `rpc: no such object: "ghost"`, ErrNoObject},
	}
	for _, addr := range []string{tcp, local} {
		for _, tc := range cases {
			err := Call(addr, tc.object, tc.method, nil, nil)
			if err == nil || err.Error() != tc.text {
				t.Errorf("%s %s.%s = %v, want the text %q", addr, tc.object, tc.method, err, tc.text)
				continue
			}
			for _, code := range codes[1:] {
				if errors.Is(err, code) != (code == tc.code) {
					t.Errorf("%s %s.%s: errors.Is(err, %v) = %v, want the code %v alone", addr, tc.object, tc.method, code, !(code == tc.code), tc.code)
				}
			}
			if Retryable(err) != (tc.code != ErrApp) {
				t.Errorf("%s %s.%s: Retryable = %v with the code %v", addr, tc.object, tc.method, Retryable(err), tc.code)
			}
		}
	}
}

// A server that is gone is unavailable over both transports: a refused dial
// over TCP, no registration over local:.
func TestTransportClosedServerIsUnavailable(t *testing.T) {
	defer ResetLocal()
	s := NewServer()
	s.Register("obj", echoHandler())
	tcp, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local, err := ServeLocal("closed", s)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{tcp, local} {
		if err := Call(addr, "obj", "Echo", text("x"), nil); err != nil {
			t.Fatalf("%s before Close: %v", addr, err)
		}
	}
	s.Close()
	for _, addr := range []string{tcp, local} {
		err := Call(addr, "obj", "Echo", text("x"), nil)
		if !errors.Is(err, ErrUnavailable) || !Retryable(err) {
			t.Errorf("%s after Close = %v, want a retryable ErrUnavailable", addr, err)
		}
	}
}

// Answering a call allocates the method name and nothing for the object
// name: the object is looked up through the frame's bytes, and the failure
// the lookup can answer with must not make it escape.
func TestTransportServeFrameAllocations(t *testing.T) {
	s := NewServer()
	s.RegisterMethods("obj", Methods{"Nop": func([]byte) (WireBody, error) { return nil, nil }})
	frame := request("obj", "Nop", "")[4:]
	if allocs := testing.AllocsPerRun(100, func() { s.serveFrame(frame) }); allocs > 1 {
		t.Errorf("serving one call allocates %v times, want at most 1 (the method name)", allocs)
	}
}
