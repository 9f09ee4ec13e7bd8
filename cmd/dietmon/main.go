// Command dietmon is the VizDIET analog of the paper's monitoring setup: it
// attaches to a running LogService bus (see dietagent -host-logservice),
// tails the event stream, renders live per-kind counts and a Gantt of the
// request spans, and can export the whole trace as chrome://tracing JSON.
//
//	dietmon -logservice host:9002                 # live tail until interrupted
//	dietmon -logservice host:9002 -once -gantt    # snapshot + Gantt, then exit
//	dietmon -logservice host:9002 -for 30s -trace trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/logsvc"
)

// eventSource is the slice of the bus a monitor needs; *logsvc.Remote
// implements it over rpc, *logsvc.Bus in-process (tests).
type eventSource interface {
	HistorySince(since int64) ([]logsvc.Event, error)
	Stats() (logsvc.BusStats, error)
}

// collector incrementally tails a bus through HistorySince polling — the
// subscription model that works over the rpc transport.
type collector struct {
	src    eventSource
	since  int64
	events []logsvc.Event
}

// poll fetches events newer than the last seen sequence number and returns
// how many arrived.
func (c *collector) poll() (int, error) {
	evs, err := c.src.HistorySince(c.since)
	if err != nil {
		return 0, err
	}
	if len(evs) > 0 {
		c.since = evs[len(evs)-1].Seq
		c.events = append(c.events, evs...)
	}
	return len(evs), nil
}

// countsLine summarises the collected events as "kind n" pairs, sorted by
// count descending then name, e.g. "solve 102 | queue 102 | evict 1".
func countsLine(events []logsvc.Event) string {
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if counts[kinds[i]] != counts[kinds[j]] {
			return counts[kinds[i]] > counts[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s %d", k, counts[k])
	}
	return strings.Join(parts, " | ")
}

// renderGantt draws the request spans as one bar per span, grouped by
// request and ordered by start time — a textual take on VizDIET's Gantt
// view. Width is the bar area in columns; the time axis spans the whole
// trace.
func renderGantt(w io.Writer, events []logsvc.Event, width int) {
	if width < 10 {
		width = 10
	}
	groups := logsvc.SpansByRequest(events)
	if len(groups) == 0 {
		fmt.Fprintln(w, "no request spans recorded")
		return
	}
	ids := make([]string, 0, len(groups))
	minT, maxT := int64(1<<62), int64(-1<<62)
	for id, spans := range groups {
		ids = append(ids, id)
		for _, sp := range spans {
			if sp.StartNanos < minT {
				minT = sp.StartNanos
			}
			if sp.EndNanos > maxT {
				maxT = sp.EndNanos
			}
		}
	}
	// Order requests by the start of their earliest span.
	sort.Slice(ids, func(i, j int) bool {
		return groups[ids[i]][0].StartNanos < groups[ids[j]][0].StartNanos
	})
	span := maxT - minT
	if span <= 0 {
		span = 1
	}
	col := func(t int64) int {
		c := int(int64(width-1) * (t - minT) / span)
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}
	fmt.Fprintf(w, "trace window %s, %d requests\n",
		time.Duration(maxT-minT), len(ids))
	for _, id := range ids {
		fmt.Fprintf(w, "%s\n", id)
		for _, sp := range groups[id] {
			bar := make([]byte, width)
			for i := range bar {
				bar[i] = ' '
			}
			lo, hi := col(sp.StartNanos), col(sp.EndNanos)
			for i := lo; i <= hi; i++ {
				bar[i] = '#'
			}
			fmt.Fprintf(w, "  %-14s %-18s |%s| %s\n",
				sp.Kind, sp.Component, bar, time.Duration(sp.DurNanos()))
		}
	}
}

// writeTrace exports the collected events as chrome://tracing JSON.
func writeTrace(path string, events []logsvc.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := logsvc.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var (
		addr      = flag.String("logservice", "", "LogService bus address to attach to (required)")
		poll      = flag.Duration("poll", time.Second, "poll interval for new events")
		runFor    = flag.Duration("for", 0, "detach after this long (0 = until interrupted)")
		once      = flag.Bool("once", false, "fetch the current history once, summarise, exit")
		gantt     = flag.Bool("gantt", false, "render a Gantt of the request spans on exit")
		ganttCols = flag.Int("gantt-width", 72, "Gantt bar area width, columns")
		traceOut  = flag.String("trace", "", "write the trace as chrome://tracing JSON to this file on exit")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "-logservice is required")
		os.Exit(2)
	}
	col := &collector{src: &logsvc.Remote{Addr: *addr}}
	if _, err := col.poll(); err != nil {
		log.Fatalf("attaching to LogService at %s: %v", *addr, err)
	}
	log.Printf("attached to %s: %d retained events", *addr, len(col.events))

	if !*once {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		var deadline <-chan time.Time
		if *runFor > 0 {
			deadline = time.After(*runFor)
		}
		ticker := time.NewTicker(*poll)
	tail:
		for {
			select {
			case <-ticker.C:
				n, err := col.poll()
				if err != nil {
					log.Printf("poll: %v", err)
					continue
				}
				if n > 0 {
					log.Printf("%d events (+%d) | %s", len(col.events), n, countsLine(col.events))
				}
			case <-sig:
				break tail
			case <-deadline:
				break tail
			}
		}
		ticker.Stop()
	}

	fmt.Printf("events: %d | %s\n", len(col.events), countsLine(col.events))
	if st, err := col.src.Stats(); err == nil {
		fmt.Printf("bus: %d published, %d retained\n", st.Published, st.HistoryLen)
	}
	if *gantt {
		renderGantt(os.Stdout, col.events, *ganttCols)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, col.events); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Printf("chrome trace written to %s (open via chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}
