// Package logsvc is the monitoring component of the deployment — the role
// DIET's LogService/VizDIET play in the paper's §6.1 setup, where the MA
// node also hosts "the monitoring tools". Components publish trace events
// (start-up, registrations, solve begin/end, evictions) and request-scoped
// spans (submit, schedule, queue, solve, complete); the bus keeps a bounded
// history and aggregates counts — enough to drive a Gantt view, a
// chrome://tracing export, or the experiment bookkeeping. cmd/dietmon is the
// VizDIET-analog client, which tails the history.
package logsvc

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/rpc"
)

// ObjectName is the rpc object under which a bus is exposed.
const ObjectName = "logservice"

// Span kinds of the request-trace taxonomy. The live middleware
// (internal/diet) and the virtual-time simulator (internal/simgrid) emit the
// same kinds, so an ablation trace and a live trace are directly comparable.
const (
	KindSubmit   = "submit"       // client: the MA round trip (the Figure 6 "find" phase)
	KindSchedule = "schedule"     // MA: estimate collection + policy ranking
	KindCollect  = "collect"      // sub-agent: its share of the estimate fan-out
	KindQueue    = "queue"        // SeD: admission to compute start (FIFO + grants)
	KindReserve  = "reserve"      // batch: one reservation attempt (submit → outcome)
	KindKill     = "overrun_kill" // batch: an attempt killed at walltime expiry
	KindRequeue  = "requeue"      // recovery: work resubmitted after a node loss or failed attempt
	KindSolve    = "solve"        // SeD: the compute body
	KindComplete = "complete"     // client: the whole call, submission to reply
	KindWorkflow = "workflow"     // runner: one DAG node (or the whole campaign), ready to done
)

// Event is one trace record. Plain events carry only the first five fields;
// request-scoped spans also carry the trace fields (RequestID onward), with
// StartNanos/EndNanos bracketing the spanned work (StartNanos == EndNanos
// for instant events such as an overrun kill).
type Event struct {
	Seq       int64
	TimeNanos int64
	Component string // emitting component, e.g. "SeD:Nancy1"
	Kind      string // e.g. "start", "solve_begin", or a span kind ("solve")
	Detail    string

	RequestID  string // trace identity; empty for plain events
	Service    string
	StartNanos int64
	EndNanos   int64
}

// IsSpan reports whether the event is a request-scoped span.
func (e Event) IsSpan() bool { return e.RequestID != "" }

// DurNanos is the span duration (0 for plain or instant events).
func (e Event) DurNanos() int64 {
	if e.EndNanos > e.StartNanos {
		return e.EndNanos - e.StartNanos
	}
	return 0
}

// Span is one request-scoped trace span, the unit the middleware publishes
// while a request moves through client → MA → LA → SeD → batch → solve.
type Span struct {
	RequestID  string // shared by every span of one request
	Component  string // emitting component
	Kind       string // one of the Kind* constants
	Service    string
	Detail     string
	StartNanos int64
	EndNanos   int64
}

// SpanSink receives request-trace spans. *Bus and *Remote implement it;
// internal/diet probes its EventSink for this interface and falls back to a
// flattened Publish when the sink is plain.
type SpanSink interface {
	PublishSpan(Span)
}

// BusStats is the bus's accounting.
type BusStats struct {
	Published  int64 // events accepted since New
	HistoryLen int   // retained events
}

// Bus is the event collector. The zero value is not usable; construct with
// New.
type Bus struct {
	mu        sync.Mutex
	seq       int64
	published int64
	history   []Event
	max       int
}

// New returns a bus keeping at most maxHistory events (older ones drop).
func New(maxHistory int) *Bus {
	if maxHistory < 1 {
		maxHistory = 1
	}
	return &Bus{max: maxHistory}
}

// Publish records a plain event.
func (b *Bus) Publish(component, kind, detail string) {
	b.PublishEvent(Event{Component: component, Kind: kind, Detail: detail})
}

// PublishSpan records a request-trace span; implements SpanSink.
func (b *Bus) PublishSpan(sp Span) {
	b.PublishEvent(Event{
		Component: sp.Component, Kind: sp.Kind, Detail: sp.Detail,
		RequestID: sp.RequestID, Service: sp.Service,
		StartNanos: sp.StartNanos, EndNanos: sp.EndNanos,
		TimeNanos: sp.EndNanos,
	})
}

// PublishEvent records a fully-formed event (the remote handler and the
// simulator use this to carry trace fields and virtual timestamps). Seq is
// assigned by the bus; a zero TimeNanos is stamped with wall-clock now.
func (b *Bus) PublishEvent(ev Event) {
	b.mu.Lock()
	b.seq++
	b.published++
	ev.Seq = b.seq
	if ev.TimeNanos == 0 {
		ev.TimeNanos = time.Now().UnixNano()
	}
	b.history = append(b.history, ev)
	if len(b.history) > b.max {
		b.history = b.history[len(b.history)-b.max:]
	}
	b.mu.Unlock()
}

// History returns a copy of the retained events in order.
func (b *Bus) History() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.history))
	copy(out, b.history)
	return out
}

// HistorySince returns the retained events with Seq > since, in order — the
// polling subscription that works over the rpc bus (cmd/dietmon tails a
// remote deployment with it).
func (b *Bus) HistorySince(since int64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.Search(len(b.history), func(i int) bool { return b.history[i].Seq > since })
	out := make([]Event, len(b.history)-i)
	copy(out, b.history[i:])
	return out
}

// Stats returns the bus's accounting.
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BusStats{Published: b.published, HistoryLen: len(b.history)}
}

// CountsByKind aggregates retained events per kind.
func (b *Bus) CountsByKind() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int)
	for _, ev := range b.history {
		out[ev.Kind]++
	}
	return out
}

// Handler exposes the bus over rpc so remote components can publish and
// tools can query.
func (b *Bus) Handler() rpc.Handler { return b.methods().Handler() }

// methods are the bus's rpc methods: Publish takes an event and answers
// nothing, HistorySince takes a sequence number, Stats takes nothing.
func (b *Bus) methods() rpc.Methods {
	return rpc.Methods{
		"Publish": rpc.Typed(func(ev *Event) (rpc.WireBody, error) {
			if ev.Component == "" || ev.Kind == "" {
				return nil, fmt.Errorf("logsvc: event needs component and kind")
			}
			ev.Seq = 0 // the bus owns sequence numbers
			b.PublishEvent(*ev)
			return nil, nil
		}),
		"HistorySince": rpc.Typed(func(since *rpc.Int) (*events, error) {
			tail := events(b.HistorySince(int64(*since)))
			return &tail, nil
		}),
		"Stats": func([]byte) (rpc.WireBody, error) {
			st := b.Stats()
			return &st, nil
		},
	}
}

// Remote is a client-side handle publishing to a remote bus. It implements
// both the plain EventSink shape and SpanSink, so a daemon started with
// -logservice routes its whole trace — plain events and request spans — to
// the bus beside the MA.
type Remote struct {
	Addr string
}

// Publish sends one event to the remote bus; errors are swallowed because
// monitoring must never fail the caller.
func (r *Remote) Publish(component, kind, detail string) {
	_ = rpc.Call(r.Addr, ObjectName, "Publish", &Event{Component: component, Kind: kind, Detail: detail}, nil)
}

// PublishSpan sends one request-trace span to the remote bus; implements
// SpanSink. Errors are swallowed like Publish's.
func (r *Remote) PublishSpan(sp Span) {
	_ = rpc.Call(r.Addr, ObjectName, "Publish", &Event{
		Component: sp.Component, Kind: sp.Kind, Detail: sp.Detail,
		RequestID: sp.RequestID, Service: sp.Service,
		StartNanos: sp.StartNanos, EndNanos: sp.EndNanos,
		TimeNanos: sp.EndNanos,
	}, nil)
}

// HistorySince fetches the remote events with Seq > since — the polling
// subscription cmd/dietmon tails a live deployment with.
func (r *Remote) HistorySince(since int64) ([]Event, error) {
	var out events
	seq := rpc.Int(since)
	err := rpc.Call(r.Addr, ObjectName, "HistorySince", &seq, &out)
	return out, err
}

// Stats fetches the remote bus's accounting.
func (r *Remote) Stats() (BusStats, error) {
	var out BusStats
	err := rpc.Call(r.Addr, ObjectName, "Stats", nil, &out)
	return out, err
}

// The bus's bodies (rpc.WireBody layouts): an event is its fields in
// declaration order, the HistorySince reply a list of events, the stats
// their two counts.

func (e *Event) WireSize() int {
	return 4*rpc.IntSize + rpc.TextSize(e.Component, e.Kind, e.Detail, e.RequestID, e.Service)
}

func (e *Event) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Int64(e.Seq).Int64(e.TimeNanos).Text(e.Component).Text(e.Kind).Text(e.Detail)
	return w.Text(e.RequestID).Text(e.Service).Int64(e.StartNanos).Int64(e.EndNanos)
}

func (e *Event) ReadWire(r *rpc.Reader) {
	e.Seq, e.TimeNanos, e.Component, e.Kind, e.Detail = r.Int64(), r.Int64(), r.Text(), r.Text(), r.Text()
	e.RequestID, e.Service, e.StartNanos, e.EndNanos = r.Text(), r.Text(), r.Int64(), r.Int64()
}

// events is the HistorySince reply.
type events []Event

func (l *events) WireSize() int                      { return rpc.ListSize(*l) }
func (l *events) AppendWire(w rpc.Writer) rpc.Writer { return rpc.AppendList(w, *l) }
func (l *events) ReadWire(r *rpc.Reader)             { *l = rpc.ReadBodies[Event](r) }

func (s *BusStats) WireSize() int                      { return 2 * rpc.IntSize }
func (s *BusStats) AppendWire(w rpc.Writer) rpc.Writer { return w.Int64(s.Published).Int(s.HistoryLen) }
func (s *BusStats) ReadWire(r *rpc.Reader)             { s.Published, s.HistoryLen = r.Int64(), r.Int() }
