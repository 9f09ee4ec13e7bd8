package diet

import (
	"testing"
	"time"

	"repro/internal/cori"
	"repro/internal/rpc"
)

// fakeAttempt is one scripted reservation attempt of a fakeExecutor.
type fakeAttempt struct {
	wait   time.Duration
	killed bool
	length time.Duration
}

// fakeExecutor is the one test double of the Executor contract: it records
// what the SeD hands it per solve, replays a scripted attempt lifecycle into
// the callback (without the timing sensitivity of a real enforced walltime),
// runs the body and reports a scripted reservation wait.
type fakeExecutor struct {
	reportWait time.Duration
	attempts   []fakeAttempt

	services   []string
	works      []float64
	monitors   []*cori.Monitor
	nilAttempt []bool // whether the SeD passed a nil attempt callback
}

func (f *fakeExecutor) Execute(service string, workGFlops float64, monitor *cori.Monitor, run func() error,
	attempt func(n int, wait time.Duration, killed bool, start, end time.Time)) (time.Duration, error) {
	f.services = append(f.services, service)
	f.works = append(f.works, workGFlops)
	f.monitors = append(f.monitors, monitor)
	f.nilAttempt = append(f.nilAttempt, attempt == nil)
	if attempt != nil {
		start := time.Now()
		for i, a := range f.attempts {
			attempt(i+1, a.wait, a.killed, start, start.Add(a.length))
			start = start.Add(a.length)
		}
	}
	return f.reportWait, run()
}

// TestSeDRoutesSolvesThroughExecutor checks the forecast-sized reservation
// plumbing: the SeD hands the executor the service name, the client's work
// estimate and its own CoRI monitor — so walltime sizing reads the same
// history the estimates do — and, with neither an event sink nor a metrics
// registry to consume it, no attempt callback at all.
func TestSeDRoutesSolvesThroughExecutor(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()

	rec := &fakeExecutor{}
	d := echoDeployment(t, nil, nil, []string{"LA1"}, []SeDSpec{{
		Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50,
		Services: []ServiceSpec{echoService()}, Executor: rec,
	}})

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("echo", 0, 0, 1)
	p.SetScalarInt(0, 41, Volatile)
	if _, err := client.Call(p, WithWork(1234)); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.ScalarInt(1); got != 42 {
		t.Fatalf("solve result %d, want 42", got)
	}
	if len(rec.services) != 1 || rec.services[0] != "echo" {
		t.Fatalf("executor saw services %v, want [echo]", rec.services)
	}
	if rec.works[0] != 1234 {
		t.Fatalf("executor saw work %v, want the client's 1234 GFlop estimate", rec.works)
	}
	if rec.monitors[0] == nil || rec.monitors[0] != d.SeDs[0].Monitor() {
		t.Fatal("the SeD must hand the executor its own monitor")
	}
	if !rec.nilAttempt[0] {
		t.Fatal("attempt callback built though nothing consumes it")
	}
}

// TestSeDFeedsReportedBatchWaitToMonitor checks the queue-wait plumbing
// behind the wait-on-depth regression: the CoRI sample's Wait carries the
// reservation wait the executor reports — backfilled reservations train the
// regression with the waits they actually saw — not just the wall-clock gap
// inside the SeD.
func TestSeDFeedsReportedBatchWaitToMonitor(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()

	rec := &fakeExecutor{reportWait: 5 * time.Second}
	d := echoDeployment(t, nil, nil, []string{"LA1"}, []SeDSpec{{
		Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50,
		Services: []ServiceSpec{echoService()}, Executor: rec,
	}})

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("echo", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	if _, err := client.Call(p); err != nil {
		t.Fatal(err)
	}

	snap := d.SeDs[0].Monitor().Snapshot()
	for _, svc := range snap.Services {
		if svc.Service != "echo" {
			continue
		}
		if len(svc.Samples) != 1 {
			t.Fatalf("one observed sample expected, got %d", len(svc.Samples))
		}
		// The solve itself takes a millisecond; the sample's wait must be
		// dominated by the executor's reported 5 s reservation wait.
		if w := svc.Samples[0].Wait; w < rec.reportWait || w > rec.reportWait+time.Second {
			t.Fatalf("sample wait %v, want ≈ the reported %v batch wait", w, rec.reportWait)
		}
		return
	}
	t.Fatal("no echo history observed")
}
