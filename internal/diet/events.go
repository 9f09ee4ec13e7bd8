package diet

import (
	"strings"
	"time"

	"repro/internal/logsvc"
)

// EventSink receives middleware trace events — the LogService integration
// of the real DIET, where every component reports start-up, registrations
// and solve activity to the monitoring tools deployed beside the MA.
// internal/logsvc provides local and remote implementations.
type EventSink = logsvc.Sink

// tracer is one component's handle on its sink: the name it publishes under,
// built once at construction, and the sink, nil when monitoring is off.
// Monitoring is always optional and never fails the caller, and with a nil
// sink it costs one nil check per site: a detail given in pieces is joined
// only for a set sink, and a site whose detail needs formatting asks on()
// first.
type tracer struct {
	sink EventSink
	name string
}

// on reports whether a sink is set.
func (t tracer) on() bool { return t.sink != nil }

// event publishes a plain event whose detail is the pieces joined.
func (t tracer) event(kind string, detail ...string) {
	if t.sink != nil {
		t.sink.Publish(logsvc.Event{Component: t.name, Kind: kind, Detail: strings.Join(detail, "")})
	}
}

// span publishes a request-trace span bracketed by wall-clock stamps, its
// detail the pieces joined.
func (t tracer) span(requestID, kind, service string, start, end time.Time, detail ...string) {
	if t.sink != nil {
		t.sink.Publish(logsvc.Event{
			RequestID: requestID, Component: t.name, Kind: kind,
			Service: service, Detail: strings.Join(detail, ""),
			StartNanos: start.UnixNano(), EndNanos: end.UnixNano(),
		})
	}
}
