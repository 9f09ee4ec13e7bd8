package logsvc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rpc"
)

func TestPublishHistoryCounts(t *testing.T) {
	b := New(100)
	b.Publish("MA:MA1", "start", "local:agent-MA1")
	b.Publish("SeD:Nancy1", "start", "addr")
	b.Publish("SeD:Nancy1", "solve_begin", "ramsesZoom2")
	b.Publish("SeD:Nancy1", "solve_end", "ramsesZoom2")

	h := b.History()
	if len(h) != 4 {
		t.Fatalf("history %d events, want 4", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].Seq <= h[i-1].Seq {
			t.Error("sequence numbers must increase")
		}
	}
	counts := b.CountsByKind()
	if counts["start"] != 2 || counts["solve_begin"] != 1 {
		t.Errorf("counts %v", counts)
	}
	comps := map[string]bool{}
	for _, ev := range h {
		comps[ev.Component] = true
	}
	if len(comps) != 2 || !comps["MA:MA1"] {
		t.Errorf("components %v", comps)
	}
}

func TestHistoryBounded(t *testing.T) {
	b := New(5)
	for i := 0; i < 20; i++ {
		b.Publish("c", "k", fmt.Sprint(i))
	}
	h := b.History()
	if len(h) != 5 {
		t.Fatalf("history %d, want 5", len(h))
	}
	if h[0].Detail != "15" || h[4].Detail != "19" {
		t.Errorf("kept wrong window: %v … %v", h[0].Detail, h[4].Detail)
	}
}

// TestBusContention is the -race stress test of the bus: concurrent
// Publish and PublishSpan, with History, HistorySince, CountsByKind and
// Stats reads alongside, must never block or race, and every event must be
// counted.
func TestBusContention(t *testing.T) {
	b := New(64)
	const (
		publishers = 4
		perPub     = 500
		readers    = 3
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b.History()
				b.HistorySince(0)
				b.CountsByKind()
				b.Stats()
			}
		}()
	}
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(fmt.Sprintf("c%d", p), "k", fmt.Sprint(i))
				b.PublishSpan(Span{RequestID: fmt.Sprintf("r%d-%d", p, i), Component: "c", Kind: KindSolve})
			}
		}(p)
	}
	pubWG.Wait()
	close(stop)
	wg.Wait()

	st := b.Stats()
	if want := int64(publishers * perPub * 2); st.Published != want {
		t.Fatalf("published %d, want %d", st.Published, want)
	}
	if st.HistoryLen != 64 {
		t.Errorf("history %d, want the 64 cap", st.HistoryLen)
	}
}

func TestHistorySince(t *testing.T) {
	b := New(100)
	for i := 0; i < 10; i++ {
		b.Publish("c", "k", fmt.Sprint(i))
	}
	h := b.History()
	tail := b.HistorySince(h[6].Seq)
	if len(tail) != 3 {
		t.Fatalf("tail %d events, want 3", len(tail))
	}
	if tail[0].Detail != "7" || tail[2].Detail != "9" {
		t.Errorf("tail window wrong: %v … %v", tail[0].Detail, tail[2].Detail)
	}
	if got := b.HistorySince(h[9].Seq); len(got) != 0 {
		t.Errorf("caught-up tail %d events, want 0", len(got))
	}
	// Events rotated out of the bounded history are simply gone.
	small := New(4)
	for i := 0; i < 10; i++ {
		small.Publish("c", "k", fmt.Sprint(i))
	}
	if got := small.HistorySince(0); len(got) != 4 {
		t.Errorf("bounded tail %d events, want 4", len(got))
	}
}

func TestSpanPublishing(t *testing.T) {
	b := New(10)
	b.PublishSpan(Span{
		RequestID: "req-1", Component: "SeD:N1", Kind: KindSolve,
		Service: "ramsesZoom2", StartNanos: 1000, EndNanos: 4000,
	})
	b.Publish("SeD:N1", "start", "addr")
	h := b.History()
	if !h[0].IsSpan() || h[1].IsSpan() {
		t.Fatalf("span classification wrong: %+v", h)
	}
	if h[0].DurNanos() != 3000 {
		t.Errorf("span duration %d, want 3000", h[0].DurNanos())
	}
	if h[0].TimeNanos != 4000 {
		t.Errorf("span event time %d, want the end stamp", h[0].TimeNanos)
	}
}

func TestRemotePublish(t *testing.T) {
	defer rpc.ResetLocal()
	b := New(50)
	srv := rpc.NewServer()
	srv.Register(ObjectName, b.Handler())
	addr, err := rpc.ServeLocal("logsvc-test", srv)
	if err != nil {
		t.Fatal(err)
	}
	r := &Remote{Addr: addr}
	r.Publish("SeD:X", "start", "detail")
	r.Publish("SeD:X", "solve_begin", "svc")
	h, err := r.HistorySince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || h[0].Component != "SeD:X" {
		t.Errorf("remote history %v", h)
	}
	// Invalid events are rejected server-side but swallowed client-side.
	r.Publish("", "", "")
	if len(b.History()) != 2 {
		t.Error("invalid event must not be recorded")
	}

	// Spans travel the same RPC with their trace fields intact.
	r.PublishSpan(Span{RequestID: "req-9", Component: "SeD:X", Kind: KindQueue,
		Service: "svc", StartNanos: 10, EndNanos: 30})
	tail, err := r.HistorySince(h[1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].RequestID != "req-9" || tail[0].DurNanos() != 20 {
		t.Errorf("remote span tail %+v", tail)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != 3 {
		t.Errorf("remote stats %+v, want 3 published", st)
	}
}
