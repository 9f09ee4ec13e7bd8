package rpc_test

import (
	"testing"

	"repro/internal/diet"
	"repro/internal/rpc"
)

// The transport rung of the benchmark ladder (ROADMAP item 1): one exchange
// over a warm pooled connection, small and large, against the in-process
// dispatch, and the gob body codec on the profile every call carries.
// Run with -benchmem.

var sink []byte

func echoServer(b *testing.B) *rpc.Server {
	b.Helper()
	s := rpc.NewServer()
	s.Register("echo", func(_ string, body []byte) ([]byte, error) { return body, nil })
	b.Cleanup(func() { s.Close() })
	return s
}

func benchInvoke(b *testing.B, addr string, body []byte) {
	b.Helper()
	if _, err := rpc.Invoke(addr, "echo", "Echo", body); err != nil { // dial outside the timer
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * len(body))) // out and back
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply, err := rpc.Invoke(addr, "echo", "Echo", body)
		if err != nil {
			b.Fatal(err)
		}
		sink = reply
	}
}

func BenchmarkInvokeTCP(b *testing.B) {
	addr, err := echoServer(b).Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	benchInvoke(b, addr, nil)
}

func BenchmarkInvokeTCP4MiB(b *testing.B) {
	addr, err := echoServer(b).Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	benchInvoke(b, addr, make([]byte, 4<<20))
}

func BenchmarkInvokeLocal(b *testing.B) {
	addr, err := rpc.ServeLocal("bench-invoke-local", echoServer(b))
	if err != nil {
		b.Fatal(err)
	}
	benchInvoke(b, addr, nil)
}

// noopProfile is the scalar-in/scalar-out profile of a no-op call.
func noopProfile(b *testing.B) *diet.Profile {
	b.Helper()
	p, err := diet.NewProfile("noop", 0, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.SetScalarInt(0, 7, diet.Volatile); err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkEncodeProfile(b *testing.B) {
	p := noopProfile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := rpc.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		sink = wire
	}
}

func BenchmarkDecodeProfile(b *testing.B) {
	wire, err := rpc.Encode(noopProfile(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rpc.Decode(wire, &diet.Profile{}); err != nil {
			b.Fatal(err)
		}
	}
}
