package cori

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// sameModelBits compares two models field by field, floats by bit pattern.
func sameModelBits(a, b Model) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// fitOp is one step of a monitor's life; apply performs it.
type fitOp struct {
	kind    string // observe, warmstart, roundtrip, restore-in-place, advance
	sample  Sample
	prior   Model
	advance time.Duration
}

func (op fitOp) apply(t *testing.T, m *Monitor, clk *fakeClock, cfg Config) *Monitor {
	t.Helper()
	switch op.kind {
	case "observe":
		m.Observe(op.sample)
	case "warmstart":
		m.WarmStart(op.prior)
	case "advance":
		clk.Advance(op.advance)
	case "roundtrip":
		// The simulator's reparent and the daemons' -cori-snapshot boot: the
		// state moves into a new monitor through the encoded snapshot.
		data, err := m.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewMonitor(cfg)
		if err := fresh.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return fresh
	case "restore-in-place":
		if err := m.Restore(m.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestKeptFitEqualsFreshFit: a monitor that is asked for its model after
// every step — so that it always holds a kept window fit to go stale — gives,
// bit for bit and at several clock readings, the model of a monitor that went
// through the same steps and is asked for the first time.
func TestKeptFitEqualsFreshFit(t *testing.T) {
	const services = 2
	names := [services]string{"ramsesZoom1", "ramsesZoom2"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []fitOp
		for i := 0; i < 60; i++ {
			switch r := rng.Intn(20); {
			case r < 12:
				s := Sample{
					Service:    names[rng.Intn(services)],
					WorkGFlops: float64(rng.Intn(4)) * 1500 * rng.Float64(), // a quarter carry none
					Duration:   time.Duration(rng.Int63n(int64(2 * time.Hour))),
					QueueDepth: rng.Intn(5),
					Wait:       time.Duration(rng.Int63n(int64(time.Hour))) * time.Duration(rng.Intn(2)),
				}
				ops = append(ops, fitOp{kind: "observe", sample: s})
			case r < 14:
				ops = append(ops, fitOp{kind: "warmstart", prior: Model{
					Service: names[rng.Intn(services)], Samples: 1 + rng.Intn(40), Confidence: rng.Float64(),
					EWMASeconds: 1000 + 4000*rng.Float64(), PerGFlopSeconds: rng.Float64(), BaseSeconds: 10 * rng.Float64(),
					MeanWorkGFlops: 3000 * rng.Float64(), WaitPerDepthSeconds: 100 * rng.Float64() * float64(rng.Intn(2)),
				}})
			case r < 15:
				ops = append(ops, fitOp{kind: "roundtrip"})
			case r < 16:
				ops = append(ops, fitOp{kind: "restore-in-place"})
			default:
				ops = append(ops, fitOp{kind: "advance", advance: time.Duration(rng.Int63n(int64(90 * time.Minute)))})
			}
		}

		clk := newFakeClock()
		cfg := Config{Window: 8, Now: clk.Now} // small, so the ring wraps
		asked := NewMonitor(cfg)
		for k, op := range ops {
			asked = op.apply(t, asked, clk, cfg)
			for _, name := range names {
				asked.Model(name) // leaves a kept fit behind for the next step to invalidate
			}
			if k%7 != 0 && k != len(ops)-1 {
				continue
			}
			// The reference: the same k+1 steps on its own clock, never asked.
			refClk := newFakeClock()
			refCfg := Config{Window: 8, Now: refClk.Now}
			ref := NewMonitor(refCfg)
			for _, op := range ops[:k+1] {
				ref = op.apply(t, ref, refClk, refCfg)
			}
			for _, later := range []time.Duration{0, time.Second, 37 * time.Minute, 5 * time.Hour} {
				clk.Advance(later)
				refClk.Advance(later)
				for _, name := range names {
					got, gotOK := asked.Model(name)
					want, wantOK := ref.Model(name)
					if gotOK != wantOK || !sameModelBits(got, want) {
						t.Fatalf("seed %d after %d steps (%s), +%v: kept fit gives\n%+v (%v)\nfresh fit\n%+v (%v)",
							seed, k+1, op.kind, later, got, gotOK, want, wantOK)
					}
				}
			}
			// Back to where the steps left the clock, which is where the next
			// reference's replay will have its own.
			clk.Advance(-(time.Second + 37*time.Minute + 5*time.Hour))
		}
	}
}

// TestConcurrentObserveModel runs the estimate path against the solve path:
// readers asking for the model while a writer observes (the race job runs
// this package), and the model at the end is the model of a monitor that saw
// the same samples with nobody asking.
func TestConcurrentObserveModel(t *testing.T) {
	clk := newFakeClock()
	m := NewMonitor(Config{Window: 16, Now: clk.Now})
	ref := NewMonitor(Config{Window: 16, Now: clk.Now})
	samples := make([]Sample, 400)
	for i := range samples {
		samples[i] = Sample{
			Service: "ramsesZoom2", WorkGFlops: float64(1000 + 37*(i%23)),
			Duration: time.Duration(60+i%11) * time.Second, QueueDepth: i % 4, Wait: time.Duration(1+i%4) * time.Minute,
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if model, ok := m.Model("ramsesZoom2"); ok && (model.Window < 1 || model.Window > 16) {
					t.Errorf("model over a window of %d samples", model.Window)
					return
				}
			}
		}()
	}
	for _, s := range samples {
		m.Observe(s)
		ref.Observe(s)
	}
	close(stop)
	readers.Wait()
	got, _ := m.Model("ramsesZoom2")
	want, _ := ref.Model("ramsesZoom2")
	if !sameModelBits(got, want) {
		t.Fatalf("model after concurrent reads\n%+v\nwant\n%+v", got, want)
	}
}
