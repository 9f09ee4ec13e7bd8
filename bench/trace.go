package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/logsvc"
)

// parentByLink marks a span whose parent is not known where it is recorded
// (the service span, recorded on the SeD side of the wire): resolve links it
// to the client-side span that carries the same Link.
const parentByLink = -1

// span is one interval the benchmark recorded around a public call it made
// into the program. Spans of one request (or campaign, or suite) share Req.
type span struct {
	ID     int    // assigned by tracer.add (or reserved with newID)
	Parent int    // 0 = root, parentByLink = resolve through Link
	Name   string // layer boundary: call, find, solve, service, campaign, …
	Req    string
	Link   string // the program's own Profile.RequestID, when the span made or served a DIET call
	Detail string
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// newID reserves an identifier, for a parent recorded after its children.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span and returns its identifier.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// resolve returns the recorded spans with every parentByLink span attached
// to the innermost client-side span sharing its Link, and given that span's
// Req so that all spans of one request share an identifier.
func (t *tracer) resolve() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	owner := make(map[string]span) // Link → shortest span that made the DIET call
	for _, s := range out {
		if s.Link == "" || s.Parent == parentByLink {
			continue
		}
		if cur, ok := owner[s.Link]; !ok || s.End.Sub(s.Start) < cur.End.Sub(cur.Start) {
			owner[s.Link] = s
		}
	}
	for i := range out {
		if out[i].Parent != parentByLink {
			continue
		}
		out[i].Parent = 0
		if o, ok := owner[out[i].Link]; ok {
			out[i].Parent, out[i].Req = o.ID, o.Req
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children (parallel DAG
// nodes) are counted once; a child reaching outside its parent only counts
// for the part inside.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(cursor) {
				lo = cursor
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cursor = hi
			}
		}
		self[s.ID] = s.End.Sub(s.Start) - covered
	}
	return self
}

// spanSummary is the per-name aggregate printed after a traced run.
type spanSummary struct {
	Name            string
	Count           int
	TotalMS, SelfMS float64
}

func summarise(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(s.End.Sub(s.Start)) / 1e6
		sum.SelfMS += float64(self[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, sum := range byName {
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// writeTrace writes the benchmark's spans, merged with the program's own
// events from the bus, as Chrome-trace JSON in the format logsvc and dietmon
// read. Each benchmark span carries its id, parent and self time in the
// detail field.
func writeTrace(dir, workload string, spans []span, busEvents []logsvc.Event) (string, error) {
	self := selfTimes(spans)
	events := append([]logsvc.Event(nil), busEvents...)
	for _, s := range spans {
		detail := fmt.Sprintf("id=%d parent=%d self_ms=%.3f", s.ID, s.Parent, float64(self[s.ID])/1e6)
		if s.Detail != "" {
			detail += " " + s.Detail
		}
		events = append(events, logsvc.Event{
			TimeNanos: s.End.UnixNano(), Component: "bench", Kind: s.Name, Detail: detail,
			RequestID: s.Req, Service: workload,
			StartNanos: s.Start.UnixNano(), EndNanos: s.End.UnixNano(),
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := logsvc.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
