package diet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// echoDeployment builds a 2-level MA→LA→SeD platform with an "echo" service,
// wiring the given sink and registry into every component.
func echoDeployment(t *testing.T, bus EventSink, reg *metrics.Registry, las []string, seds []SeDSpec) *Deployment {
	t.Helper()
	d, err := Deploy(DeploymentSpec{
		MAName: "MA1", Policy: scheduler.NewRoundRobin(), LAs: las, SeDs: seds,
		Local: true, Events: bus, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func echoService() ServiceSpec {
	desc, _ := NewProfileDesc("echo", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	return ServiceSpec{Desc: desc, Solve: func(p *Profile) error {
		v, err := p.ScalarInt(0)
		if err != nil {
			return err
		}
		time.Sleep(time.Millisecond) // give the solve span a visible duration
		return p.SetScalarInt(1, v+1, Volatile)
	}}
}

// TestRequestTraceSpans is the tracing acceptance test: a single solve
// through diet.Client against a live MA→LA→SeD hierarchy produces a trace
// with at least five spans sharing one request ID — submit, schedule, queue,
// solve, complete (plus the LA's collect span).
func TestRequestTraceSpans(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	bus := logsvc.New(1000)
	d := echoDeployment(t, bus, nil, []string{"LA1"}, []SeDSpec{{
		Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50,
		Services: []ServiceSpec{echoService()},
	}})

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("echo", 0, 0, 1)
	p.SetScalarInt(0, 41, Volatile)
	info, err := client.Call(p, WithWork(10))
	if err != nil {
		t.Fatal(err)
	}
	if info.RequestID == "" {
		t.Fatal("CallInfo must carry the request ID")
	}

	groups := logsvc.SpansByRequest(bus.History())
	spans := groups[info.RequestID]
	if len(spans) < 5 {
		t.Fatalf("trace has %d spans for %s, want >= 5:\n%+v", len(spans), info.RequestID, spans)
	}
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Kind]++
		if sp.Service != "echo" {
			t.Errorf("span %s carries service %q, want echo", sp.Kind, sp.Service)
		}
		if sp.EndNanos < sp.StartNanos {
			t.Errorf("span %s ends before it starts", sp.Kind)
		}
	}
	for _, want := range []string{logsvc.KindSubmit, logsvc.KindSchedule, logsvc.KindCollect,
		logsvc.KindQueue, logsvc.KindSolve, logsvc.KindComplete} {
		if kinds[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (kinds: %v)", kinds[want], want, kinds)
		}
	}
	// The complete span encloses the whole call; the solve span sits inside.
	byKind := map[string]logsvc.Event{}
	for _, sp := range spans {
		byKind[sp.Kind] = sp
	}
	comp, solve := byKind[logsvc.KindComplete], byKind[logsvc.KindSolve]
	if solve.StartNanos < comp.StartNanos || solve.EndNanos > comp.EndNanos {
		t.Error("solve span must nest inside the complete span")
	}
	if solve.DurNanos() <= 0 {
		t.Error("solve span must have a positive duration")
	}
}

// TestTraceIDPropagationTwoLevels drives concurrent calls across a 2-level
// hierarchy (run under -race in CI): every call's spans stay grouped under
// its own request ID, with no cross-request bleed.
func TestTraceIDPropagationTwoLevels(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	bus := logsvc.New(4096)
	svc := echoService()
	d := echoDeployment(t, bus, nil, []string{"LA1", "LA2"}, []SeDSpec{
		{Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50, Services: []ServiceSpec{svc}},
		{Name: "SeD2", Parent: "LA2", Capacity: 1, PowerGFlops: 50, Services: []ServiceSpec{svc}},
	})

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	const calls = 8
	async := make([]*AsyncCall, calls)
	profiles := make([]*Profile, calls)
	for i := range async {
		profiles[i], _ = NewProfile("echo", 0, 0, 1)
		profiles[i].SetScalarInt(0, int64(i), Volatile)
		async[i] = client.CallAsync(profiles[i], WithWork(5))
	}
	seen := map[string]bool{}
	for i, a := range async {
		info, err := a.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if seen[info.RequestID] {
			t.Fatalf("request ID %s reused across calls", info.RequestID)
		}
		seen[info.RequestID] = true
	}
	groups := logsvc.SpansByRequest(bus.History())
	for id := range seen {
		kinds := map[string]int{}
		for _, sp := range groups[id] {
			kinds[sp.Kind]++
		}
		for _, want := range []string{logsvc.KindSubmit, logsvc.KindSchedule,
			logsvc.KindQueue, logsvc.KindSolve, logsvc.KindComplete} {
			if kinds[want] != 1 {
				t.Errorf("request %s: %d %q spans, want exactly 1 (kinds %v)", id, kinds[want], want, kinds)
			}
		}
	}
}

// TestOneSubmitPerCall: the client's submit span is the one submit record a
// call leaves on the bus (the MA's share is its schedule span), so the bus's
// per-kind counts, and dietmon's counts line with them, read one per call.
func TestOneSubmitPerCall(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	bus := logsvc.New(1000)
	d := echoDeployment(t, bus, nil, []string{"LA1"}, []SeDSpec{{
		Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50,
		Services: []ServiceSpec{echoService()},
	}})
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	const calls = 3
	for i := 0; i < calls; i++ {
		p, _ := NewProfile("echo", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := client.Call(p); err != nil {
			t.Fatal(err)
		}
	}
	counts := bus.CountsByKind()
	for _, kind := range []string{logsvc.KindSubmit, logsvc.KindSchedule, logsvc.KindComplete} {
		if counts[kind] != calls {
			t.Errorf("%d calls left %d %q records, want %d (counts %v)", calls, counts[kind], kind, calls, counts)
		}
	}
}

// TestSeDMetricsExposition is the metrics acceptance test: scraping /metrics
// on an instrumented deployment returns valid Prometheus text including the
// queue-wait histogram and the forecast-misprediction metric, and the SeD's
// solve-record ring feeds live forecast accuracy.
func TestSeDMetricsExposition(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	reg := metrics.NewRegistry()
	d := echoDeployment(t, nil, reg, []string{"LA1"}, []SeDSpec{{
		Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50,
		Services: []ServiceSpec{echoService()},
	}})

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, _ := NewProfile("echo", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := client.Call(p, WithWork(10)); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(metrics.Handler(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	for _, want := range []string{
		"# TYPE diet_sed_queue_wait_seconds histogram",
		`diet_sed_queue_wait_seconds_bucket{sed="SeD1",service="echo",le="+Inf"} 3`,
		`diet_sed_queue_wait_seconds_count{sed="SeD1",service="echo"} 3`,
		"# TYPE diet_sed_forecast_mispredict_pct histogram",
		`diet_sed_forecast_mispredict_pct_count{sed="SeD1",service="echo"} 3`,
		`diet_sed_solves_started_total{sed="SeD1",service="echo"} 3`,
		`diet_sed_solves_completed_total{sed="SeD1",service="echo"} 3`,
		`diet_sed_forecast_mean_abs_pct{sed="SeD1",service="echo"}`,
		`diet_agent_requests_total{agent="MA1"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}

	recs := d.SeDs[0].SolveRecords()
	if len(recs) != 3 {
		t.Fatalf("solve records %d, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Service != "echo" || r.RequestID == "" || r.MeasuredS <= 0 || r.PredictedS <= 0 {
			t.Errorf("incomplete solve record %+v", r)
		}
	}
	acc, ok := d.SeDs[0].ForecastAccuracy()["echo"]
	if !ok || acc.Solves != 3 {
		t.Fatalf("forecast accuracy %+v, want 3 echo solves", acc)
	}
	if acc.MeanAbsPct < 0 {
		t.Errorf("mean abs pct %v must be non-negative", acc.MeanAbsPct)
	}
}

// TestBatchAttemptSpans checks the kill-and-requeue leg of the trace: each
// reservation attempt becomes a reserve span and each walltime kill an
// overrun_kill span, all under the request's ID, with the batch counters fed.
func TestBatchAttemptSpans(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()
	bus := logsvc.New(1000)
	reg := metrics.NewRegistry()
	d := echoDeployment(t, bus, reg, []string{"LA1"}, []SeDSpec{{
		Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 50,
		Services: []ServiceSpec{echoService()},
		// One attempt killed at its walltime, then a successful requeue.
		Executor: &fakeExecutor{reportWait: 15 * time.Millisecond, attempts: []fakeAttempt{
			{wait: 10 * time.Millisecond, killed: true, length: 30 * time.Millisecond},
			{wait: 5 * time.Millisecond, length: 30 * time.Millisecond},
		}},
	}})

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProfile("echo", 0, 0, 1)
	p.SetScalarInt(0, 1, Volatile)
	info, err := client.Call(p, WithWork(10))
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, sp := range logsvc.SpansByRequest(bus.History())[info.RequestID] {
		kinds[sp.Kind]++
	}
	if kinds[logsvc.KindReserve] != 2 {
		t.Errorf("reserve spans %d, want 2 (one per attempt)", kinds[logsvc.KindReserve])
	}
	if kinds[logsvc.KindKill] != 1 {
		t.Errorf("overrun_kill spans %d, want 1", kinds[logsvc.KindKill])
	}
	out := reg.String()
	for _, want := range []string{
		`diet_sed_batch_overrun_kills_total{sed="SeD1"} 1`,
		`diet_sed_batch_requeues_total{sed="SeD1"} 1`,
		`diet_sed_batch_reserve_wait_seconds_count{sed="SeD1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// evicted reads the agent's two eviction families, heartbeat and collect
// probe, as /metrics exposes them; a must have a metrics registry.
func evicted(a *Agent) float64 {
	return a.metrics.evictions.With(a.cfg.Name).Value() + a.metrics.collectEvictions.With(a.cfg.Name).Value()
}

// peerServed reads diet_agent_peer_served_total for a.
func peerServed(a *Agent) float64 {
	return a.metrics.peerServed.With(a.cfg.Name).Value()
}
