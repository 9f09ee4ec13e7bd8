package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/logsvc"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if samples[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestChunkBlocks(t *testing.T) {
	// 20 operations: ten of 10 ms, then ten of 20 ms.
	var lat []float64
	for i := 0; i < 20; i++ {
		lat = append(lat, 10+10*float64(i/10))
	}
	blocks := chunkBlocks(lat, 2)
	if len(blocks) != 2 || blocks[0].N != 10 || blocks[1].N != 10 {
		t.Fatalf("blocks = %+v, want two of ten samples", blocks)
	}
	if blocks[0].P50 != 10 || blocks[1].P90 != 20 {
		t.Errorf("block percentiles = %+v", blocks)
	}
	if math.Abs(blocks[0].Rate-100) > 1e-9 || math.Abs(blocks[1].Rate-50) > 1e-9 {
		t.Errorf("block rates = %v, %v, want 100 and 50 ops/s", blocks[0].Rate, blocks[1].Rate)
	}
	med, lo, hi := overBlocks(blocks, func(b block) float64 { return b.Rate })
	if med != 75 || lo != 50 || hi != 100 {
		t.Errorf("over blocks: median %v min %v max %v", med, lo, hi)
	}
	if got := chunkBlocks(lat[:7], 5); len(got) != 1 || got[0].N != 7 {
		t.Errorf("seven samples in five blocks = %+v, want one block", got)
	}
	// One disturbed block in five does not move the median over blocks.
	five := []block{{P50: 10}, {P50: 10.2}, {P50: 30}, {P50: 9.9}, {P50: 10.1}}
	if med, _, _ := overBlocks(five, func(b block) float64 { return b.P50 }); med != 10.1 {
		t.Errorf("median over blocks with one outlier = %v, want 10.1", med)
	}
}

// A server that serves one request at a time and stalls on the first one:
// in an open loop the later requests were due during the stall, so their
// latency must include the wait it imposed, and the generator must still
// have started each of them on time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 120 * time.Millisecond
	var server sync.Mutex
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	stalled := false
	res := openLoop(due, func() error {
		server.Lock()
		defer server.Unlock()
		if !stalled { // the first request to reach the server
			stalled = true
			time.Sleep(stall)
		}
		return nil
	})
	if res.Attempted != 4 || res.Failed != 0 || len(res.Lat) != 4 {
		t.Fatalf("open loop result %+v", res)
	}
	for i, lat := range res.Lat {
		if floor := stall - due[i] - 5*time.Millisecond; lat < floor {
			t.Errorf("request %d due at %v has latency %v, want at least %v: it waited out the stall", i, due[i], lat, floor)
		}
	}
	for i, late := range res.Late {
		if late > 50*time.Millisecond {
			t.Errorf("generator started request %d %v late; a stalled server must not hold the generator", i, late)
		}
	}
	// The same server in a closed loop sends the next request only after
	// the stall, so nobody else sees it.
	first := true
	closed := closedLoop(1, 200*time.Millisecond, func() error {
		if first {
			first = false
			time.Sleep(stall)
		}
		return nil
	})
	slow := 0
	for _, lat := range closed.Lat {
		if lat >= stall/2 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop saw %d slow operations, want only the stalled one", slow)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(newEnv(runConfig{Seed: 3}).rng, 100, time.Second)
	b := poissonSchedule(newEnv(runConfig{Seed: 3}).rng, 100, time.Second)
	c := poissonSchedule(newEnv(runConfig{Seed: 4}).rng, 100, time.Second)
	if len(a) < 60 || len(a) > 140 {
		t.Errorf("%d arrivals in 1 s at 100/s", len(a))
	}
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Error("the same seed gave two schedules")
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("two seeds gave the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("arrivals out of order")
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{}
	root := tr.newID()
	tr.add(span{Parent: root, Name: "find", Req: "r1", Start: at(10), End: at(30)})
	solve := tr.add(span{Parent: root, Name: "solve", Req: "r1", Link: "c1-7", Start: at(20), End: at(50)}) // overlaps find
	tr.add(span{Parent: root, Name: "late", Req: "r1", Start: at(90), End: at(120)})                        // reaches outside the parent
	tr.add(span{ID: root, Name: "call", Req: "r1", Start: at(0), End: at(100)})
	tr.add(span{Parent: parentByLink, Name: "service", Req: "c1-7", Link: "c1-7", Start: at(25), End: at(35)})

	spans := tr.resolve()
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent's [0,100].
	if got := self[root]; got != 50*time.Millisecond {
		t.Errorf("self time of call = %v, want 50ms", got)
	}
	if got := self[solve]; got != 20*time.Millisecond {
		t.Errorf("self time of solve = %v, want 30ms − 10ms of service", got)
	}
	for _, s := range spans {
		if s.Name == "service" && (s.Parent != solve || s.Req != "r1") {
			t.Errorf("service span resolved to parent %d req %q, want the solve span of r1", s.Parent, s.Req)
		}
	}

	dir := t.TempDir()
	path, err := writeTrace(dir, "unit", spans, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := logsvc.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(spans) {
		t.Errorf("trace file holds %d events, want %d", len(events), len(spans))
	}
	for _, ev := range events {
		if ev.Args["request_id"] != "r1" {
			t.Errorf("event %s has request_id %q, want r1 on every span of the request", ev.Name, ev.Args["request_id"])
		}
	}
}

func TestTallyCountsRefusedAndWrongOutput(t *testing.T) {
	tl := &tally{}
	tl.op(nil)
	tl.op(errors.New("gateway answered HTTP 503: overloaded"))
	p, err := newNoopProfile(41)
	if err != nil {
		t.Fatal(err)
	}
	p.SetScalarInt(1, 43, 0) // a reply of in+2
	if tl.op(checkNoop(p, 41)) == nil {
		t.Error("a wrong output passed its check")
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("tally = %d failed of %d, want 2 of 3", tl.failed, tl.attempted)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, cur []float64
		lower    bool
		bound    float64
		want     verdict
	}{
		{"same", []float64{10, 10.2, 9.9}, []float64{10.1, 9.8, 10}, true, 0.1, unchanged},
		{"slower", []float64{10, 10.2, 9.9}, []float64{12, 12.2, 11.9}, true, 0.1, regressed},
		{"faster", []float64{10, 10.2, 9.9}, []float64{8, 8.2, 7.9}, true, 0.1, improved},
		{"noisy", []float64{10, 13, 8}, []float64{11, 9, 14}, true, 0.1, unresolved},
		{"noisy but apart", []float64{10, 13, 8}, []float64{20, 22, 19}, true, 0.1, regressed},
		{"rate down", []float64{100, 101, 99}, []float64{80, 81, 79}, false, 0.1, regressed},
		{"rate up", []float64{100, 101, 99}, []float64{120, 121, 119}, false, 0.1, improved},
		{"a little better every time", []float64{10, 10.1, 9.9}, []float64{9.7, 9.8, 9.6}, true, 0.25, unchanged},
	} {
		if got, _, _ := judge(c.old, c.cur, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// heap_mb is read after a fixed number of operations, so the timed phases,
// whose operation count depends on how fast the program is, cannot move it;
// what they leave behind is reported per operation.
func TestHeapIsReadAfterAFixedCount(t *testing.T) {
	o := &outcome{}
	calls := 0
	o.heapAfter(newEnv(runConfig{}), 7, func() error { calls++; return nil })
	if calls != 7 || !(o.HeapMB > 0) {
		t.Fatalf("%d operations before the reading of %v MB, want 7 and a positive heap", calls, o.HeapMB)
	}
	fixed := o.HeapMB
	var kept [][]byte
	o.measure(func() {
		for i := 0; i < 64; i++ {
			kept = append(kept, make([]byte, 64<<10))
			o.Ops++
		}
	})
	if o.HeapMB != fixed {
		t.Errorf("heap_mb moved from %v to %v over the timed phases", fixed, o.HeapMB)
	}
	if o.RetainedKB < 48 || o.RetainedKB > 96 {
		t.Errorf("retained %v KB per operation, want about the 64 KB each one kept", o.RetainedKB)
	}
	runtime.KeepAlive(kept)
}

// Runs are time-boxed, so two result files attempted different numbers of
// operations: -compare judges the failure ratio, not the count.
func TestCompareJudgesFailRatioNotCount(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed, attempted int) string {
		data, err := json.Marshal(resultFile{Failed: failed, Attempted: attempted})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	slow, fast := write("slow.json", 1, 1000), write("fast.json", 2, 4000)
	if code := compareFiles(slow, fast, io.Discard); code != 0 {
		t.Errorf("exit %d for 2 of 4000 against 1 of 1000: more failures, lower ratio", code)
	}
	if code := compareFiles(fast, slow, io.Discard); code != 1 {
		t.Errorf("exit %d for 1 of 1000 against 2 of 4000, want 1: fewer failures, higher ratio", code)
	}
}

// metricNames returns the names BENCHMARK.json declares.
func metricNames(t *testing.T, specs []metricSpec) []string {
	t.Helper()
	var names []string
	for _, m := range specs {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func reportedNames(rep *report) []string {
	var names []string
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A 1/20-size run of every workload must emit exactly the end-to-end
// metrics BENCHMARK.json names, all of them above zero, with no failure.
func TestSmokeEveryWorkload(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	want := metricNames(t, sp.EndToEnd)
	for _, w := range sp.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runOnce(runConfig{Workload: w.Name, Seed: 2, Seconds: 0.8, Setups: 1, HeapOps: 1, OutDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct %v, %d failed of %d", rep.Correct, rep.Failed, rep.Attempted)
			}
			if got := reportedNames(rep); !sameNames(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			for name, m := range rep.Metrics {
				if !(m.Value > 0) || m.Unit == "" {
					t.Errorf("%s = %v %q, want a positive value with a unit", name, m.Value, m.Unit)
				}
			}
		})
	}
}

// The traced run must emit exactly the per-layer metrics, write a trace
// dietmon's reader accepts, and leave no goroutine behind.
func TestSmokeTracedRunAndLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder runs one campaign and every kernel")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := runOnce(runConfig{Workload: "noop_tcp", Seed: 2, Seconds: 0.8, Trace: true, OutDir: dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("%d failed of %d", rep.Failed, rep.Attempted)
	}
	if got, want := reportedNames(rep), metricNames(t, sp.PerLayer); !sameNames(got, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got  %v\n want %v", got, want)
	}
	if left := rep.Metrics["proc.goroutines_end"].Value; left > 0 {
		t.Errorf("%v goroutines left after the platform closed", left)
	}
	f, err := os.Open(filepath.Join(dir, "trace-noop_tcp.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := logsvc.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, ev := range events {
		if ev.TID == "bench" {
			names[ev.Name]++
		}
	}
	for _, name := range []string{"call", "find", "solve", "service"} {
		if names[name] == 0 {
			t.Errorf("trace has no %q span from the benchmark (%v)", name, names)
		}
	}
	if names["service"] != names["solve"] {
		t.Errorf("%d service spans for %d solve spans", names["service"], names["solve"])
	}
}

// The traced passes of the other workloads record their own span trees.
func TestTracedPassSpans(t *testing.T) {
	for workload, want := range map[string][]string{
		"gateway_http": {"http_solve", "service"},
		"sim_suite":    {"suite", "ablation"},
	} {
		_, e, _, err := pass(runConfig{Workload: workload, Seed: 2, Seconds: 0.3, Trace: true, Setups: 1, HeapOps: 1, OutDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]int)
		for _, s := range e.tr.resolve() {
			names[s.Name]++
		}
		for _, name := range want {
			if names[name] == 0 {
				t.Errorf("%s: no %q span (%v)", workload, name, names)
			}
		}
	}
}

// A service that returns a wrong output must fail the run: correct is
// false, the operations count as failed, and the command exits non-zero.
func TestWrongOutputFailsTheRun(t *testing.T) {
	rep, err := runOnce(runConfig{Workload: "noop_tcp", Seed: 1, Seconds: 0.3, Setups: 1, HeapOps: 1, Fault: true, OutDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted {
		t.Errorf("correct %v, %d failed of %d; want every operation failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	var out bytes.Buffer
	if code := exitCode(rep, &out); code == 0 {
		t.Error("exit code 0 for a run with wrong outputs")
	}
	var last report
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Correct {
		t.Errorf("last line %q: %v", lines[len(lines)-1], err)
	}
}

func TestReferenceSuiteMatchesExpectBlock(t *testing.T) {
	if err := checkReference(); err != nil {
		t.Fatal(err)
	}
	got, err := runSuite(0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for k, v := range got.Headline {
		want[k] = v
	}
	want["makespan_hours"] += 0.01
	if sameHeadline(got.Headline, want) == nil {
		t.Error("a moved headline number passed the check")
	}
}
