package logsvc

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rpc"
)

// recordedStream is a miniature request trace the way the live middleware
// publishes it: one request's spans across four components, plus a plain
// lifecycle event.
func recordedStream(b *Bus) {
	b.Publish(plain("SeD:N1", "start", "local:sed-N1"))
	b.Publish(Event{RequestID: "req-1", Component: "client", Kind: KindSubmit,
		Service: "ramsesZoom2", StartNanos: 1_000, EndNanos: 2_000})
	b.Publish(Event{RequestID: "req-1", Component: "MA:MA1", Kind: KindSchedule,
		Service: "ramsesZoom2", StartNanos: 1_200, EndNanos: 1_800, Detail: "3 candidates"})
	b.Publish(Event{RequestID: "req-1", Component: "SeD:N1", Kind: KindQueue,
		Service: "ramsesZoom2", StartNanos: 2_100, EndNanos: 5_000})
	b.Publish(Event{RequestID: "req-1", Component: "SeD:N1", Kind: KindSolve,
		Service: "ramsesZoom2", StartNanos: 5_000, EndNanos: 9_000})
	b.Publish(Event{RequestID: "req-1", Component: "client", Kind: KindComplete,
		Service: "ramsesZoom2", StartNanos: 1_000, EndNanos: 9_500})
}

func TestChromeTraceRoundTrip(t *testing.T) {
	b := New(100)
	recordedStream(b)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, b.History()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 6 {
		t.Fatalf("round-tripped %d trace events, want 6", len(back))
	}
	spans, instants := 0, 0
	var reqIDs = map[string]int{}
	for _, te := range back {
		switch te.Phase {
		case "X":
			spans++
			if te.DurUS <= 0 {
				t.Errorf("complete event %q has no duration", te.Name)
			}
			reqIDs[te.Args["request_id"]]++
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", te.Phase)
		}
	}
	if spans != 5 || instants != 1 {
		t.Fatalf("got %d spans + %d instants, want 5 + 1", spans, instants)
	}
	if reqIDs["req-1"] != 5 {
		t.Errorf("request grouping lost in export: %v", reqIDs)
	}
	// Timestamps are rebased to the earliest event and ordered.
	if back[0].TsUS != 0 {
		t.Errorf("first event at %v µs, want 0 (rebased)", back[0].TsUS)
	}
	for i := 1; i < len(back); i++ {
		if back[i].TsUS < back[i-1].TsUS {
			t.Error("trace events must be start-ordered")
		}
	}
}

func TestSpansByRequest(t *testing.T) {
	b := New(100)
	recordedStream(b)
	b.Publish(Event{RequestID: "req-2", Component: "client", Kind: KindSubmit,
		StartNanos: 10_000, EndNanos: 10_500})

	groups := SpansByRequest(b.History())
	if len(groups) != 2 {
		t.Fatalf("grouped %d requests, want 2", len(groups))
	}
	if len(groups["req-1"]) != 5 || len(groups["req-2"]) != 1 {
		t.Errorf("group sizes req-1=%d req-2=%d", len(groups["req-1"]), len(groups["req-2"]))
	}
	sp := groups["req-1"]
	for i := 1; i < len(sp); i++ {
		if sp[i].StartNanos < sp[i-1].StartNanos {
			t.Error("spans within a request must be start-ordered")
		}
	}
	// Submit and complete share a start stamp; the stable sort keeps the
	// publication order, so submit leads and solve is the latest starter.
	if sp[0].Kind != KindSubmit || sp[len(sp)-1].Kind != KindSolve {
		t.Errorf("span order wrong: first %q last %q", sp[0].Kind, sp[len(sp)-1].Kind)
	}
}

// FuzzChromeTrace feeds the export events decoded from the fuzz bytes with
// the bus's own HistorySince layout: ChromeTrace must not panic, must keep
// every event, a span as a complete event and a plain one as an instant,
// must order them by ts, and must read back from its JSON unchanged.
func FuzzChromeTrace(f *testing.F) {
	b := New(100)
	recordedStream(b)
	for _, evs := range []events{b.History(), nil, {
		{Component: "c", Kind: "k", TimeNanos: math.MinInt64},
		{RequestID: "r", Component: "c", Kind: KindSolve, StartNanos: math.MaxInt64, EndNanos: math.MinInt64},
	}} {
		wire, _ := rpc.Encode(&evs)
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var evs events
		if rpc.Decode(data, &evs) != nil {
			return
		}
		spans := 0
		for i := range evs {
			// JSON carries only valid UTF-8; the export is not asked to
			// mend what the bus would never hold.
			ev := &evs[i]
			for _, s := range []*string{&ev.Component, &ev.Kind, &ev.Detail, &ev.RequestID, &ev.Service} {
				*s = strings.ToValidUTF8(*s, "?")
			}
			if ev.IsSpan() {
				spans++
			}
		}
		out := ChromeTrace(evs)
		if len(out) != len(evs) {
			t.Fatalf("%d events exported as %d", len(evs), len(out))
		}
		complete := 0
		for i, te := range out {
			if te.Phase == "X" {
				complete++
			}
			if i > 0 && te.TsUS < out[i-1].TsUS {
				t.Fatalf("entry %d at ts %v follows ts %v", i, te.TsUS, out[i-1].TsUS)
			}
		}
		if complete != spans {
			t.Fatalf("%d spans exported as %d complete events", spans, complete)
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, evs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadChromeTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, out) {
			t.Fatalf("chrome trace read back as\n%+v\nwant\n%+v", back, out)
		}
	})
}
