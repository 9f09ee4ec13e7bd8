package rpc_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/diet"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// The transport rung of the benchmark ladder (ROADMAP item 1): one exchange
// over a warm pooled connection, small and large, against the in-process
// dispatch, and the body codec on the bodies every call carries: the profile,
// small and with a 4 MiB file, and the submit reply of the paper's 11 SeDs.
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

// payloadProfile carries one file of the given size in, one placeholder out.
func payloadProfile(b *testing.B, size int) *diet.Profile {
	b.Helper()
	p, err := diet.NewProfile("payload", 0, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.SetFileBytes(0, "in.bin", make([]byte, size), diet.Volatile); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDecodeProfile4MiB decodes a profile around a 4 MiB file. The file
// is a view of the wire bytes, never a copy: the run fails unless decoding
// allocates the same few bytes whether the file is 4 KiB or 4 MiB.
func BenchmarkDecodeProfile4MiB(b *testing.B) {
	decode := func(wire []byte) {
		if err := rpc.Decode(wire, &diet.Profile{}); err != nil {
			b.Fatal(err)
		}
	}
	perDecode := func(size int) (allocs, bytes uint64) {
		wire, err := rpc.Encode(payloadProfile(b, size))
		if err != nil {
			b.Fatal(err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode(wire)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := perDecode(4 << 10)
	bigAllocs, bigBytes := perDecode(4 << 20)
	if bigAllocs != smallAllocs || bigBytes != smallBytes {
		b.Fatalf("decoding copies the payload: %d allocs/%d B at 4 KiB, %d allocs/%d B at 4 MiB",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
	wire, err := rpc.Encode(payloadProfile(b, 4<<20))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode(wire)
	}
}

// paperSubmitReply is what the MA answers a client on the paper's platform:
// the estimation vectors of 11 ranked servers, forecasts and addresses
// included.
func paperSubmitReply() *diet.SubmitReply {
	reply := &diet.SubmitReply{}
	for i := 0; i < 11; i++ {
		reply.Estimates = append(reply.Estimates, scheduler.Estimate{
			ServerID: fmt.Sprintf("Nancy%d", i+1), Addr: fmt.Sprintf("10.0.0.%d:9100", i+1), Service: "ramsesZoom2", Capacity: 1, QueueLen: i, PowerGFlops: 63.8,
			LastSolveSeconds: 5400, HasForecast: true, ForecastSamples: 12, EWMASolveSeconds: 5300,
			ForecastConfidence: 0.8, PendingWorkSeconds: 5300 * float64(i),
		})
	}
	return reply
}

func BenchmarkEncodeSubmitReply(b *testing.B) {
	reply := paperSubmitReply()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := rpc.Encode(reply)
		if err != nil {
			b.Fatal(err)
		}
		sink = wire
	}
}

func BenchmarkDecodeSubmitReply(b *testing.B) {
	wire, err := rpc.Encode(paperSubmitReply())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rpc.Decode(wire, &diet.SubmitReply{}); err != nil {
			b.Fatal(err)
		}
	}
}
