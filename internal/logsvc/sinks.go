package logsvc

import "time"

// Sink receives trace events, plain and span alike. *Bus, *Remote, Printer
// and Tee implement it; every middleware component accepts one
// (diet.EventSink is this interface).
type Sink interface {
	Publish(Event)
}

// Printer renders events through a printf-style logger — the daemons'
// -log-events sink, turning the trace into process-log lines.
type Printer struct {
	Logf func(format string, v ...any)
}

// Publish logs one event: a span as a "span" line with its request,
// service and duration, a plain event as an "event" line.
func (p Printer) Publish(ev Event) {
	if !ev.IsSpan() {
		p.Logf("event %-14s %-16s %s", ev.Kind, ev.Component, ev.Detail)
		return
	}
	detail := ev.Detail
	if detail != "" {
		detail = " " + detail
	}
	p.Logf("span  %-14s %-16s req=%s svc=%s dur=%s%s",
		ev.Kind, ev.Component, ev.RequestID, ev.Service,
		time.Duration(ev.EndNanos-ev.StartNanos), detail)
}

// Tee fans events out to every member sink, so a daemon can both publish to
// a remote LogService bus and echo into its own log.
type Tee []Sink

// Publish forwards one event to every member.
func (t Tee) Publish(ev Event) {
	for _, s := range t {
		s.Publish(ev)
	}
}
