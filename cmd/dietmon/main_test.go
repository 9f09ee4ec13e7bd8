package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logsvc"
	"repro/internal/rpc"
)

// serveBus exposes a bus over the rpc transport and returns its address —
// the shape dietmon attaches to in a real deployment.
func serveBus(t *testing.T, bus *logsvc.Bus) string {
	t.Helper()
	srv := rpc.NewServer()
	srv.Register(logsvc.ObjectName, bus.Handler())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func publishSampleTrace(bus *logsvc.Bus) {
	bus.Publish(logsvc.Event{Component: "SeD:Nancy1", Kind: "start", Detail: "booted"})
	for i, kind := range []string{logsvc.KindSubmit, logsvc.KindSchedule,
		logsvc.KindQueue, logsvc.KindSolve, logsvc.KindComplete} {
		bus.Publish(logsvc.Event{
			RequestID: "c1-1", Component: "SeD:Nancy1", Kind: kind,
			Service: "ramsesZoom2", StartNanos: int64(i) * 1000, EndNanos: int64(i+1) * 1000,
		})
	}
}

// TestMonitorAttachesAndExportsTrace is the dietmon acceptance test: the
// collector attaches to a live rpc-served bus, tails it incrementally, and
// the exported chrome://tracing JSON round-trips.
func TestMonitorAttachesAndExportsTrace(t *testing.T) {
	bus := logsvc.New(256)
	publishSampleTrace(bus)
	addr := serveBus(t, bus)

	col := &collector{src: &logsvc.Remote{Addr: addr}}
	n, err := col.poll()
	if err != nil {
		t.Fatalf("attach poll: %v", err)
	}
	if n != 6 {
		t.Fatalf("first poll fetched %d events, want 6", n)
	}
	// A second poll is incremental: nothing new yet, then only the new event.
	if n, _ := col.poll(); n != 0 {
		t.Fatalf("idle poll fetched %d events, want 0", n)
	}
	bus.Publish(logsvc.Event{Component: "MA1", Kind: "evict", Detail: "LA-Lyon missed 3 heartbeats"})
	if n, _ := col.poll(); n != 1 {
		t.Fatalf("incremental poll fetched %d events, want exactly the new one", n)
	}

	line := countsLine(col.events)
	for _, want := range []string{"solve 1", "complete 1", "evict 1"} {
		if !strings.Contains(line, want) {
			t.Errorf("counts line %q missing %q", line, want)
		}
	}
	if st, err := col.src.Stats(); err != nil || st.Published != 7 {
		t.Errorf("remote stats %+v err %v, want 7 published", st, err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, col.events); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := logsvc.ReadChromeTrace(f)
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if len(back) < 6 {
		t.Fatalf("trace round-trip kept %d events, want >= 6", len(back))
	}
	names := map[string]bool{}
	for _, te := range back {
		names[te.Name] = true
	}
	for _, want := range []string{logsvc.KindSolve, logsvc.KindComplete} {
		if !names[want] {
			t.Errorf("round-tripped trace missing %q events (have %v)", want, names)
		}
	}
}

func TestRenderGantt(t *testing.T) {
	bus := logsvc.New(64)
	publishSampleTrace(bus)
	var sb strings.Builder
	renderGantt(&sb, bus.History(), 40)
	out := sb.String()
	for _, want := range []string{"c1-1", logsvc.KindSolve, "SeD:Nancy1", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt output missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	renderGantt(&empty, nil, 40)
	if !strings.Contains(empty.String(), "no request spans") {
		t.Errorf("empty gantt output %q", empty.String())
	}
}
