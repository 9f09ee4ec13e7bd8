// Transfer forecasting: the data dimension of the collector. Where cori.go
// answers "how long would this work compute here", this file answers "how
// long until the input bytes arrive" — the missing term of the paper's
// multi-GB GRAFIC/RAMSES movements. A TransferMonitor records measured
// dataman transfers into the same bounded-ring + EWMA + confidence-decay
// machinery the duration models use, keyed by node pair, and predicts the
// seconds a given payload would need between two nodes. The data-aware
// scheduler folds that prediction into the estimation vector
// (scheduler.Estimate.InputTransferSeconds), and the simulator trains the
// same monitor in virtual time.
package cori

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/scheduler"
)

// TransferSample is one measured data movement between two nodes.
type TransferSample struct {
	From, To string
	SizeMB   float64
	Duration time.Duration
	At       time.Time // completion time; zero means "now"
}

// PairKey canonicalises a node pair. Links are modelled as symmetric (the
// paper's inter-cluster WAN is), so both directions train one model and
// sparse histories converge twice as fast.
func PairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// TransferModel is the forecaster's snapshot for one node pair.
type TransferModel struct {
	Pair    string
	Samples int // transfers observed (lifetime)
	Window  int // transfers currently in the ring

	// EWMAMBps is the exponentially weighted observed bandwidth.
	EWMAMBps float64
	// LatencySeconds and PerMBSeconds are the least-squares fit
	// duration ≈ LatencySeconds + PerMBSeconds·sizeMB. PerMBSeconds is 0
	// when the window holds no size spread to regress on, in which case
	// EWMAMBps is the whole model.
	LatencySeconds float64
	PerMBSeconds   float64
	// Confidence ∈ (0,1]: 2^(-age/HalfLife), like the duration models.
	Confidence float64
	AgeSeconds float64
}

// TransferSeconds predicts moving sizeMB over this pair's link: the fitted
// latency+slope model when the window had size spread, else sizeMB over the
// EWMA bandwidth. It returns a negative value when the model holds no
// samples.
func (m TransferModel) TransferSeconds(sizeMB float64) float64 {
	if m.Samples == 0 {
		return -1
	}
	if m.PerMBSeconds > 0 {
		if p := m.LatencySeconds + m.PerMBSeconds*sizeMB; p > 0 {
			return p
		}
	}
	if m.EWMAMBps > 0 {
		return sizeMB / m.EWMAMBps
	}
	return -1
}

// transferHistory is the bounded per-pair record.
type transferHistory struct {
	ring     []TransferSample
	next     int
	count    int
	ewmaMBps float64
	lastAt   time.Time
}

// TransferMonitor records measured transfers per node pair and forecasts
// transfer times, mirroring Monitor's machinery and locking contract. It is
// safe for concurrent use and is typically shared platform-wide: transfer
// characteristics belong to links, not to one SeD.
type TransferMonitor struct {
	cfg Config
	now func() time.Time

	mu    sync.Mutex
	pairs map[string]*transferHistory
}

// NewTransferMonitor creates a transfer monitor; the zero Config selects the
// same defaults as the duration monitors (window 64, alpha 0.25, half-life
// 1h, wall clock).
func NewTransferMonitor(cfg Config) *TransferMonitor {
	cfg = cfg.withDefaults()
	return &TransferMonitor{cfg: cfg, now: cfg.Now, pairs: make(map[string]*transferHistory)}
}

// Observe records one measured transfer. Zero-size or non-positive-duration
// samples are ignored — they carry no bandwidth signal.
func (tm *TransferMonitor) Observe(s TransferSample) {
	if s.SizeMB <= 0 || s.Duration <= 0 || s.From == s.To {
		return
	}
	if s.At.IsZero() {
		s.At = tm.now()
	}
	key := PairKey(s.From, s.To)
	mbps := s.SizeMB / s.Duration.Seconds()

	tm.mu.Lock()
	defer tm.mu.Unlock()
	h := tm.pairs[key]
	if h == nil {
		h = &transferHistory{ring: make([]TransferSample, 0, tm.cfg.Window)}
		tm.pairs[key] = h
	}
	if len(h.ring) < tm.cfg.Window {
		h.ring = append(h.ring, s)
	} else {
		h.ring[h.next] = s
	}
	h.next = (h.next + 1) % tm.cfg.Window
	h.count++
	if h.count == 1 {
		h.ewmaMBps = mbps
	} else {
		h.ewmaMBps = alpha*mbps + (1-alpha)*h.ewmaMBps
	}
	if s.At.After(h.lastAt) {
		h.lastAt = s.At
	}
}

// Model returns the current model for the pair (either direction); ok is
// false when no transfer between the two nodes was ever observed.
func (tm *TransferMonitor) Model(from, to string) (TransferModel, bool) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	h, ok := tm.pairs[PairKey(from, to)]
	if !ok {
		return TransferModel{}, false
	}
	return tm.modelLocked(PairKey(from, to), h), true
}

// modelLocked builds the snapshot: EWMA bandwidth plus a windowed
// least-squares fit duration ≈ latency + perMB·size, guarded against
// degenerate windows exactly like the duration fit.
func (tm *TransferMonitor) modelLocked(key string, h *transferHistory) TransferModel {
	m := TransferModel{Pair: key, Samples: h.count, Window: len(h.ring), EWMAMBps: h.ewmaMBps}
	var n, sx, sy, sxx, sxy float64
	for _, s := range h.ring {
		x, y := s.SizeMB, s.Duration.Seconds()
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if n >= 2 {
		det := n*sxx - sx*sx
		if det > 1e-9*sxx {
			slope := (n*sxy - sx*sy) / det
			base := (sy - slope*sx) / n
			if slope > 0 {
				m.PerMBSeconds = slope
				if base > 0 {
					m.LatencySeconds = base
				}
			}
		}
	}
	age := tm.now().Sub(h.lastAt).Seconds()
	if age < 0 {
		age = 0
	}
	m.AgeSeconds = age
	m.Confidence = math.Exp2(-age / tm.cfg.HalfLife.Seconds())
	return m
}

// Predict forecasts moving sizeMB from one node to the other. Same-node
// transfers are free with full confidence. ok is false when the pair has no
// history — the caller must fall back to an assumed bandwidth.
func (tm *TransferMonitor) Predict(from, to string, sizeMB float64) (seconds, confidence float64, ok bool) {
	if from == to {
		return 0, 1, true
	}
	m, ok := tm.Model(from, to)
	if !ok {
		return 0, 0, false
	}
	p := m.TransferSeconds(sizeMB)
	if p < 0 {
		return 0, 0, false
	}
	return p, m.Confidence, true
}

// PredictOr prices moving sizeMB from one node to the other: the pair
// model's forecast when it is trusted at the shared confidence floor
// (scheduler.MinConfidence), else sizeMB over fallbackMBps. A nil
// monitor always falls back. The live SeD and the simulator's data ablation
// both price input transfers through it.
func (tm *TransferMonitor) PredictOr(from, to string, sizeMB, fallbackMBps float64) float64 {
	if tm != nil {
		if sec, conf, ok := tm.Predict(from, to, sizeMB); ok && conf >= scheduler.MinConfidence {
			return sec
		}
	}
	return sizeMB / fallbackMBps
}

// Pairs lists the observed pair keys, sorted.
func (tm *TransferMonitor) Pairs() []string {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]string, 0, len(tm.pairs))
	for k := range tm.pairs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
