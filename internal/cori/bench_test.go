package cori

import (
	"fmt"
	"testing"
	"time"
)

// benchMonitor returns a monitor with a full ring of mixed samples.
func benchMonitor(window int) *Monitor {
	m := NewMonitor(Config{Window: window})
	for i := 0; i < window; i++ {
		work := float64(1000 + 137*i)
		m.Observe(Sample{
			Service:    "zoom",
			WorkGFlops: work,
			Duration:   time.Duration(work / 40 * float64(time.Second)),
			QueueDepth: i % 6,
			Wait:       time.Duration(30*(i%6)+1) * time.Second,
		})
	}
	return m
}

// BenchmarkObserve measures the per-solve recording cost — the hot write on
// every completed solve.
func BenchmarkObserve(b *testing.B) {
	m := benchMonitor(64)
	s := Sample{Service: "zoom", WorkGFlops: 5000, Duration: 125 * time.Second, QueueDepth: 3, Wait: 90 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(s)
	}
}

// BenchmarkModel measures one estimation-vector build: the windowed duration
// and wait regressions over a full 64-sample ring.
func BenchmarkModel(b *testing.B) {
	m := benchMonitor(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Model("zoom"); !ok {
			b.Fatal("model must exist")
		}
	}
}

// BenchmarkSnapshotRoundTrip measures a full persistence cycle: snapshot,
// JSON encode, decode, restore — the dietsed -cori-snapshot save/boot path.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	m := benchMonitor(64)
	fresh := NewMonitor(Config{Window: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := m.Snapshot().Encode()
		if err != nil {
			b.Fatal(err)
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryPrior measures a warm-start query against a registry fed
// by a 16-SeD cluster — the ChildRegister reply path.
func BenchmarkRegistryPrior(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		m := benchMonitor(64)
		model, _ := m.Model("zoom")
		r.Update(fmt.Sprintf("SeD-%02d", i), "grillon", time.Unix(int64(i), 0), []Model{model})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Prior("grillon", "zoom"); !ok {
			b.Fatal("prior must exist")
		}
	}
}

// BenchmarkModelAfterObserve measures Model when every call follows an
// Observe — one SeD solving and estimating in turn, so the kept window fit is
// never reused and the ring is walked each time.
func BenchmarkModelAfterObserve(b *testing.B) {
	m := benchMonitor(64)
	s := Sample{Service: "zoom", WorkGFlops: 5000, Duration: 125 * time.Second, QueueDepth: 3, Wait: 90 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(s)
		if _, ok := m.Model("zoom"); !ok {
			b.Fatal("model must exist")
		}
	}
}
