package cori

import (
	"math"
	"testing"
	"time"
)

// FuzzSnapshotRoundTrip throws corrupted, truncated and mutated JSON at the
// snapshot decoder and the Restore path: invalid input must be rejected with
// an error — never a panic — and any input that does decode and restore must
// re-snapshot into a state a second monitor restores cleanly.
func FuzzSnapshotRoundTrip(f *testing.F) {
	m := NewMonitor(Config{Window: 4})
	base := time.Unix(1_000_000_000, 0).UTC()
	m.SetNow(func() time.Time { return base })
	for i := 0; i < 6; i++ {
		m.Observe(Sample{
			Service:    "ramsesZoom2",
			WorkGFlops: float64(1000 * (i + 1)),
			Duration:   time.Duration(i+1) * time.Second,
			QueueDepth: i % 3,
			Wait:       time.Duration(i) * time.Millisecond,
			At:         base.Add(time.Duration(i) * time.Minute),
		})
	}
	m.WarmStart(Model{Service: "ramsesZoom1", Samples: 8, Confidence: 0.9, EWMASeconds: 30})
	valid, err := m.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add([]byte("{}"))
	f.Add([]byte(`{"Version":1,"services":[{"Service":"x","Count":-3}]}`))
	f.Add([]byte(`{"Version":1,"services":[{"Service":"x"},{"Service":"x"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return // corrupt/truncated/mis-versioned input is rejected, not fatal
		}
		fresh := NewMonitor(Config{Window: 8})
		if err := fresh.Restore(s); err != nil {
			return // schema-valid JSON may still violate restore invariants
		}
		// Whatever was accepted must be internally consistent: it snapshots
		// again and that snapshot restores into a second monitor.
		again := NewMonitor(Config{Window: 8})
		if err := again.Restore(fresh.Snapshot()); err != nil {
			t.Fatalf("restored state does not re-snapshot cleanly: %v", err)
		}
		// Models built from restored state must keep confidence in [0,1].
		for _, svc := range fresh.Services() {
			if model, ok := fresh.Model(svc); ok {
				if math.IsNaN(model.Confidence) || model.Confidence < 0 || model.Confidence > 1 {
					t.Fatalf("service %q restored to confidence %v outside [0,1]", svc, model.Confidence)
				}
			}
		}
	})
}

// FuzzMergeModels feeds arbitrary (including non-finite and out-of-range)
// model fields into the gossip merge and asserts the merged confidence stays
// in [0,1] — the invariant every consumer of a gossiped prior relies on.
func FuzzMergeModels(f *testing.F) {
	f.Add(10, 0.9, 30.0, 0.02, 5, 0.5, 45.0, 0.03)
	f.Add(1, 1.0, 1.0, 0.0, 1, 1.0, 1.0, 0.0)
	f.Add(0, 0.0, 0.0, -1.0, -5, 2.5, math.MaxFloat64, 0.0)
	f.Fuzz(func(t *testing.T, s1 int, c1, e1, p1 float64, s2 int, c2, e2, p2 float64) {
		a := Model{Service: "svc", Samples: s1, Confidence: c1, EWMASeconds: e1,
			PerGFlopSeconds: p1, BaseSeconds: 1, MeanWorkGFlops: 1500,
			MeanQueueDepth: p2, AgeSeconds: e2}
		b := Model{Service: "svc", Samples: s2, Confidence: c2, EWMASeconds: e2,
			PerGFlopSeconds: p2, WaitPerDepthSeconds: 2, WaitBaseSeconds: 0.5,
			MeanWaitSeconds: c1}
		merged, ok := MergeModels(a, b)
		if !ok {
			return // nothing usable — a legal outcome for garbage input
		}
		if math.IsNaN(merged.Confidence) || merged.Confidence < 0 || merged.Confidence > 1 {
			t.Fatalf("merged confidence %v outside [0,1]\n a=%+v\n b=%+v", merged.Confidence, a, b)
		}
		if merged.Samples <= 0 {
			t.Fatalf("a usable merge must carry positive samples, got %d", merged.Samples)
		}
		// No surviving input may poison the blend: every merged mean must
		// stay a number (weights are finite and the filter drops non-finite
		// fields wholesale).
		for name, v := range map[string]float64{
			"EWMASeconds": merged.EWMASeconds, "MeanQueueDepth": merged.MeanQueueDepth,
			"WaitBaseSeconds": merged.WaitBaseSeconds, "MeanWaitSeconds": merged.MeanWaitSeconds,
		} {
			if math.IsNaN(v) {
				t.Fatalf("merged %s is NaN\n a=%+v\n b=%+v", name, a, b)
			}
		}
	})
}
