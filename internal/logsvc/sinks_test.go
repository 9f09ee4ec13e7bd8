package logsvc

import (
	"fmt"
	"strings"
	"testing"
)

// TestTeeAndPrinter sends one plain event and one span through a Tee of a
// bus and a Printer: the bus keeps both with the span's stamps intact, and
// the printer writes one event line and one span line.
func TestTeeAndPrinter(t *testing.T) {
	bus := New(10)
	var lines []string
	tee := Tee{bus, Printer{Logf: func(format string, v ...any) {
		lines = append(lines, fmt.Sprintf(format, v...))
	}}}
	tee.Publish(Event{Component: "SeD:N1", Kind: "start", Detail: "addr"})
	tee.Publish(Event{RequestID: "req-1", Component: "SeD:N1", Kind: KindSolve,
		Service: "ramsesZoom2", Detail: "attempt 1", StartNanos: 1000, EndNanos: 4000})

	h := bus.History()
	if len(h) != 2 || h[0].IsSpan() || !h[1].IsSpan() {
		t.Fatalf("bus history %+v, want one plain event then one span", h)
	}
	if sp := h[1]; sp.StartNanos != 1000 || sp.EndNanos != 4000 || sp.TimeNanos != sp.EndNanos {
		t.Errorf("span through the tee %+v, want start 1000, end 4000 and time at the end", sp)
	}

	if len(lines) != 2 {
		t.Fatalf("printer logged %d lines, want 2: %q", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "event start") || !strings.Contains(lines[0], "SeD:N1") {
		t.Errorf("plain event line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "span  solve") {
		t.Errorf("span line %q", lines[1])
	}
	for _, want := range []string{"req=req-1", "svc=ramsesZoom2", "dur=3µs", "attempt 1"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("span line %q lacks %q", lines[1], want)
		}
	}
}
