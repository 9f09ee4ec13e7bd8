package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diet"
	"repro/internal/platform"
	"repro/internal/scheduler"
)

// laOfCluster maps a Grid'5000 cluster to the Local Agent that fronts it in
// the paper's deployment (§6.1: one LA per cluster, two of them in Lyon).
var laOfCluster = map[string]string{
	"grillon":    "LA-Nancy",
	"helios":     "LA-Sophia",
	"chti":       "LA-Lille",
	"violette":   "LA-Toulouse",
	"capricorne": "LA-Lyon-capricorne",
	"sagittaire": "LA-Lyon-sagittaire",
}

// deployPaper brings up the paper's hierarchy — 1 MA, 6 LAs, 11 SeDs,
// round-robin policy — over loopback TCP with every SeD offering the given
// services. One Client.Call on it is about 19 rpc exchanges: Submit, 6 LA
// collects, 11 SeD estimates and the Solve. events may be nil.
func deployPaper(services []diet.ServiceSpec, events diet.EventSink) (*diet.Deployment, error) {
	dep := platform.PaperDeployment()
	spec := diet.DeploymentSpec{
		MAName: "MA1",
		Policy: scheduler.NewRoundRobin(),
		Events: events,
	}
	for _, la := range dep.LAs {
		spec.LAs = append(spec.LAs, la.Name)
	}
	for _, s := range dep.SeDs {
		spec.SeDs = append(spec.SeDs, diet.SeDSpec{
			Name: s.Name, Parent: laOfCluster[s.Cluster], Cluster: s.Cluster,
			Capacity: 1, PowerGFlops: s.PowerGFlops(), Services: services,
		})
	}
	return diet.Deploy(spec)
}

// probe wraps the SolveFuncs the benchmark registers: it counts solves and
// their busy time from outside the program, and in a traced run records a
// "service" span carrying the request's own Profile.RequestID.
type probe struct {
	tr    *tracer
	count atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (pr *probe) wrap(name string, solve diet.SolveFunc) diet.SolveFunc {
	return func(p *diet.Profile) error {
		t0 := time.Now()
		err := solve(p)
		t1 := time.Now()
		pr.count.Add(1)
		pr.busy.Add(int64(t1.Sub(t0)))
		if pr.tr != nil {
			pr.tr.add(span{Name: "service", Req: p.RequestID, Link: p.RequestID, Parent: parentByLink, Detail: name, Start: t0, End: t1})
		}
		return err
	}
}

// meanMS is the mean busy time per solve in milliseconds.
func (pr *probe) meanMS() float64 {
	n := pr.count.Load()
	if n == 0 {
		return 0
	}
	return float64(pr.busy.Load()) / float64(n) / 1e6
}

const (
	noopService    = "noop"
	payloadService = "payload"
	payloadInSize  = 4 << 20
	payloadOutSize = 1 << 20
)

// noopSpec is a scalar-in/scalar-out service that returns in+1: compute is
// zero, so the middleware does all the work of a call. A faulty spec
// returns in+2, for the tests that make an output check fail.
func noopSpec(pr *probe, faulty bool) diet.ServiceSpec {
	desc, err := diet.NewProfileDesc(noopService, 0, 0, 1)
	if err != nil {
		panic(err) // static indices
	}
	desc.Set(0, diet.Scalar, diet.Int)
	desc.Set(1, diet.Scalar, diet.Int)
	inc := int64(1)
	if faulty {
		inc = 2
	}
	return diet.ServiceSpec{Desc: desc, Solve: pr.wrap(noopService, func(p *diet.Profile) error {
		v, err := p.ScalarInt(0)
		if err != nil {
			return err
		}
		return p.SetScalarInt(1, v+inc, diet.Volatile)
	})}
}

// newNoopProfile builds the request for input v.
func newNoopProfile(v int64) (*diet.Profile, error) {
	p, err := diet.NewProfile(noopService, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	if err := p.SetScalarInt(0, v, diet.Volatile); err != nil {
		return nil, err
	}
	return p, p.SetScalarInt(1, 0, diet.Volatile)
}

// checkNoop verifies the reply to input v.
func checkNoop(p *diet.Profile, v int64) error {
	got, err := p.ScalarInt(1)
	if err != nil {
		return err
	}
	if got != v+1 {
		return fmt.Errorf("noop(%d) returned %d, want %d", v, got, v+1)
	}
	return nil
}

// wordSum is the payload checksum: the sum of the input's little-endian
// 64-bit words. Cheap on purpose — the workload is about moving bytes.
func wordSum(b []byte) uint64 {
	var sum uint64
	for ; len(b) >= 8; b = b[8:] {
		sum += binary.LittleEndian.Uint64(b)
	}
	return sum
}

// payloadSpec takes an IN file and returns an OUT file of payloadOutSize
// bytes whose first 8 bytes are the checksum of the input.
func payloadSpec(pr *probe) diet.ServiceSpec {
	desc, err := diet.NewProfileDesc(payloadService, 0, 0, 1)
	if err != nil {
		panic(err) // static indices
	}
	desc.Set(0, diet.File, diet.Char)
	desc.Set(1, diet.File, diet.Char)
	return diet.ServiceSpec{Desc: desc, Solve: pr.wrap(payloadService, func(p *diet.Profile) error {
		_, in, err := p.FileBytes(0)
		if err != nil {
			return err
		}
		out := make([]byte, payloadOutSize)
		binary.LittleEndian.PutUint64(out, wordSum(in))
		return p.SetFileBytes(1, "out.bin", out, diet.Volatile)
	})}
}

func newPayloadProfile(in []byte) (*diet.Profile, error) {
	p, err := diet.NewProfile(payloadService, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	if err := p.SetFileBytes(0, "in.bin", in, diet.Volatile); err != nil {
		return nil, err
	}
	return p, p.SetFileBytes(1, "", nil, diet.Volatile)
}

func checkPayload(p *diet.Profile, want uint64) error {
	_, out, err := p.FileBytes(1)
	if err != nil {
		return err
	}
	if len(out) != payloadOutSize {
		return fmt.Errorf("payload reply is %d bytes, want %d", len(out), payloadOutSize)
	}
	if got := binary.LittleEndian.Uint64(out); got != want {
		return fmt.Errorf("payload checksum %#x, want %#x", got, want)
	}
	return nil
}

// tally counts every operation the benchmark attempted and every one that
// failed, was refused or returned a wrong output; the first few messages
// explain a failure.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

// op records one attempted operation and passes err through, so a wrong
// output also counts as failed in the load phase that issued it.
func (t *tally) op(err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 5 {
			t.first = append(t.first, err.Error())
		}
	}
	return err
}
