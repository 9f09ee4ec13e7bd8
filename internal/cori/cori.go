// Package cori implements the resource-information collector and performance
// forecaster the paper's conclusion calls for: in real DIET the CoRI
// (Collector of Resource Information) and FAST layers feed plug-in schedulers
// with richer server information than the static estimation vector, and the
// paper notes a better makespan "could be attained by writing a plug-in
// scheduler" driven by such data.
//
// Each SeD hosts a Monitor. The Monitor records the history of completed
// solves — duration, work size, queue depth at admission — into a bounded
// ring per service, and maintains two online duration models:
//
//   - an EWMA of solve durations (fixed per-sample weight; the separate
//     Confidence signal handles wall-clock staleness), the right predictor
//     for constant-cost services and the fallback when work sizes are
//     unknown;
//   - an online least-squares fit duration ≈ base + perGFlop·work, which
//     captures how a heterogeneous work size maps to time on *this* server
//     (the slope is effectively the inverse of the server's delivered power,
//     measured rather than advertised).
//
// Forecast answers "how long would work GFlops take here, and how long until
// the server drains what it already accepted" — the two quantities the
// forecast-aware plug-in schedulers in internal/scheduler rank by. The same
// models feed two more decision points: Model.DeliveredGFlops gives
// measured-power deployment planning (internal/deploy) the throughput each
// SeD actually sustains, and Monitor.Forecast gives batch reservation
// sizing (internal/batch.WalltimePolicy) the duration a walltime grant must
// cover.
package cori

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/scheduler"
)

// Sample is one completed solve observation.
type Sample struct {
	Service    string
	WorkGFlops float64       // caller's work estimate; 0 when unknown
	Duration   time.Duration // compute time, excluding queue wait
	QueueDepth int           // requests already queued when this one was admitted
	Wait       time.Duration // observed queue wait before compute; <= 0 when unknown
	At         time.Time     // completion time
}

// Config tunes a Monitor. The zero value selects sensible defaults.
type Config struct {
	// Window bounds the per-service history ring (default 64).
	Window int
	// Alpha is the EWMA weight of the newest sample (default 0.25).
	Alpha float64
	// HalfLife is the staleness half-life of forecast confidence: a model
	// whose newest sample is HalfLife old is trusted half as much
	// (default 1h, roughly one paper-scale solve).
	HalfLife time.Duration
	// Now overrides the clock, letting tests drive staleness decay
	// deterministically and the simulator run the Monitor in virtual time.
	// Defaults to time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	if c.HalfLife <= 0 {
		c.HalfLife = time.Hour
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// history is the bounded per-service record plus the online models.
type history struct {
	ring  []Sample // bounded; oldest overwritten first
	next  int      // ring write cursor
	count int      // total samples ever observed (≥ len(ring) entries kept)

	ewmaSeconds float64
	lastAt      time.Time

	// prior is a gossiped cluster model installed by WarmStart; it is
	// blended into Model output with priorWeight effective samples until
	// local history outweighs it. priorAt stamps the installation so the
	// prior's confidence keeps decaying on this monitor's clock.
	prior       *Model
	priorWeight float64
	priorAt     time.Time

	// fit is windowFit of the ring as it stands — sums over the *ring*, not
	// lifetime sums, so the model tracks servers whose delivered power drifts
	// — kept so that a Model call between two Observes does not walk the ring
	// again. Whatever changes ring, count or ewmaSeconds clears fitValid;
	// Restore builds new histories, and WarmStart touches only the prior,
	// which is blended in on every call.
	fit      Model
	fitValid bool
}

// Model is a snapshot of the forecaster's state for one service — the
// extended estimation vector a SeD copies into scheduler.Estimate.
type Model struct {
	Service string
	Samples int // total solves observed (lifetime)
	Window  int // solves currently in the ring

	// EWMASeconds is the exponentially weighted recent solve duration
	// (per-sample weight Alpha; staleness shows up in Confidence, not here).
	EWMASeconds float64
	// BaseSeconds and PerGFlopSeconds are the least-squares fit
	// duration ≈ BaseSeconds + PerGFlopSeconds·work. PerGFlopSeconds is 0
	// when the window holds no work-size spread to regress on (unknown or
	// constant work), in which case EWMASeconds is the whole model.
	BaseSeconds     float64
	PerGFlopSeconds float64
	// MeasuredGFlops is the delivered power implied by the fit (1/slope),
	// 0 when the slope is unavailable.
	MeasuredGFlops float64
	// MeanWorkGFlops is the average work size of ring samples that carried a
	// work estimate, 0 when none did. Together with EWMASeconds it yields a
	// delivered-power estimate even when the window has no work-size spread
	// to regress on (see DeliveredGFlops).
	MeanWorkGFlops float64
	// Confidence ∈ (0,1]: 2^(-age/HalfLife) where age is the time since the
	// newest sample. Fresh history ≈ 1; stale history decays toward 0.
	Confidence float64
	// AgeSeconds is that age, for reporting.
	AgeSeconds float64
	// MeanQueueDepth is the average queue depth solves met at admission —
	// the contention signal.
	MeanQueueDepth float64
	// MeanWaitSeconds is the average observed queue wait of ring samples
	// that carried one, 0 when none did.
	MeanWaitSeconds float64
	// WaitBaseSeconds and WaitPerDepthSeconds are the least-squares fit
	// wait ≈ WaitBaseSeconds + WaitPerDepthSeconds·depth over samples that
	// observed their queue wait — the measured replacement for the
	// (queued+running) × EWMA drain approximation. WaitPerDepthSeconds is 0
	// when the window holds no depth spread to regress on.
	WaitBaseSeconds     float64
	WaitPerDepthSeconds float64
	// Warm reports that this model still carries gossiped-prior influence
	// (WarmStart): the prior's weight fades as local history fills the ring
	// and a full window of local samples retires it, clearing the flag.
	// PriorWeight is the effective sample weight the prior carries in the
	// blend.
	Warm        bool
	PriorWeight float64
}

// SolveSeconds predicts the duration of work GFlops under this model;
// it returns a negative value when the model holds no samples. It delegates
// to scheduler.Estimate.ForecastSolveSeconds so the collector and the
// policies share one prediction implementation.
func (m Model) SolveSeconds(workGFlops float64) float64 {
	var est scheduler.Estimate
	m.ApplyToEstimate(&est, 0)
	return est.ForecastSolveSeconds(workGFlops)
}

// WaitAtDepth predicts the queue wait a request admitted behind depth others
// would see, from the wait-on-depth regression. ok is false when the window
// held no depth spread to regress on — callers must then fall back to a
// pending × EWMA approximation such as Monitor.DrainSeconds.
func (m Model) WaitAtDepth(depth int) (float64, bool) {
	if m.WaitPerDepthSeconds <= 0 {
		return 0, false
	}
	w := m.WaitBaseSeconds + m.WaitPerDepthSeconds*float64(depth)
	if w < 0 {
		w = 0
	}
	return w, true
}

// DeliveredGFlops is the best available delivered-power estimate for the
// server: the regression slope's implied power when the window has work-size
// spread, else the throughput implied by running the mean observed work size
// in the EWMA duration, else 0 (no sample ever carried a work estimate).
// This is the capability signal measured-power deployment planning
// (internal/deploy) places SeDs by.
func (m Model) DeliveredGFlops() float64 {
	if m.MeasuredGFlops > 0 {
		return m.MeasuredGFlops
	}
	if m.MeanWorkGFlops > 0 && m.EWMASeconds > 0 {
		return m.MeanWorkGFlops / m.EWMASeconds
	}
	return 0
}

// ApplyToEstimate copies the model into est's forecast-extension fields,
// with drainSeconds (see Monitor.DrainSeconds) as the pending-work forecast.
// Both the live diet.SeD and the simulator's mirrored SeD build their
// estimation vectors through this one projection, so the two paths cannot
// drift.
func (m Model) ApplyToEstimate(est *scheduler.Estimate, drainSeconds float64) {
	est.HasForecast = true
	est.ForecastSamples = m.Samples
	est.EWMASolveSeconds = m.EWMASeconds
	est.ForecastBaseS = m.BaseSeconds
	est.ForecastPerGFlopS = m.PerGFlopSeconds
	est.ForecastConfidence = m.Confidence
	est.PendingWorkSeconds = drainSeconds
}

// DrainSeconds forecasts how long the server needs to work off its
// accepted-but-unfinished solves: per-service pending counts, each priced at
// that service's recent EWMA duration, shared over capacity slots. A pending
// service with no history of its own (nothing completed yet) borrows the
// proxy model's EWMA rather than being priced at zero.
func (m *Monitor) DrainSeconds(pending map[string]int, proxy Model, capacity int) float64 {
	if capacity < 1 {
		capacity = 1
	}
	// Only the cached EWMAs are needed — skip the full Model regression,
	// this sits on the per-request estimation hot path.
	m.mu.Lock()
	defer m.mu.Unlock()
	var total float64
	for svc, n := range pending {
		if n <= 0 {
			continue
		}
		ewma := proxy.EWMASeconds
		if h := m.svc[svc]; h != nil && h.count > 0 {
			ewma = h.ewmaSeconds
		}
		total += float64(n) * ewma
	}
	return total / float64(capacity)
}

// DrainEstimate forecasts how long the server needs to work off its accepted
// work: the queue-wait regression evaluated at the current depth when the
// model has one (wait measured directly, accurate when queued jobs differ in
// size), else the per-service pending × EWMA approximation of DrainSeconds.
// Both diet.SeD.Estimate and the simulator's mirrored SeD price their drain
// through this one method, so the two paths cannot drift.
func (m *Monitor) DrainEstimate(model Model, pending map[string]int, depth, capacity int) float64 {
	if w, ok := model.WaitAtDepth(depth); ok {
		return w
	}
	return m.DrainSeconds(pending, model, capacity)
}

// Monitor collects per-service solve history for one server and forecasts
// solve durations.
//
// Locking contract: every exported method is safe for concurrent use — all
// mutable state (the per-service histories, the installed priors, and the
// clock rebound by SetNow) is guarded by one mutex, and everything handed out
// (Model values, Snapshot contents) or taken in (Restore, WarmStart) is
// copied, never aliased, so callers can Observe, Model, Snapshot and Restore
// from different goroutines freely. The one obligation that remains with the
// caller is the injected Config.Now func: when the Monitor is shared across
// goroutines the clock itself must be safe for concurrent calls (time.Now
// is; a test clock or the simulator's virtual clock must be single-threaded
// or synchronized on its own).
type Monitor struct {
	cfg Config
	now func() time.Time

	mu  sync.Mutex
	svc map[string]*history
}

// NewMonitor returns a Monitor with the given configuration.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{cfg: cfg, now: cfg.Now, svc: make(map[string]*history)}
}

// SetNow rebinds the Monitor's clock (nil restores time.Now). The simulator
// uses it to carry a trained Monitor into a fresh virtual-time run.
func (m *Monitor) SetNow(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// Observe records one completed solve. Zero-duration samples are clamped to
// a microsecond so models stay positive.
func (m *Monitor) Observe(s Sample) {
	if s.Service == "" {
		return
	}
	if s.Duration <= 0 {
		s.Duration = time.Microsecond
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.At.IsZero() {
		s.At = m.now()
	}
	h := m.svc[s.Service]
	if h == nil {
		h = &history{ring: make([]Sample, 0, m.cfg.Window)}
		m.svc[s.Service] = h
	}
	if len(h.ring) < m.cfg.Window {
		h.ring = append(h.ring, s)
	} else {
		h.ring[h.next] = s
	}
	h.next = (h.next + 1) % m.cfg.Window
	h.count++
	d := s.Duration.Seconds()
	if h.count == 1 {
		h.ewmaSeconds = d
	} else {
		h.ewmaSeconds = m.cfg.Alpha*d + (1-m.cfg.Alpha)*h.ewmaSeconds
	}
	if s.At.After(h.lastAt) {
		h.lastAt = s.At
	}
	h.fitValid = false
}

// Model snapshots the forecaster state for a service. ok is false when the
// Monitor has never observed the service and holds no gossiped prior for it.
func (m *Monitor) Model(service string) (model Model, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ok = m.modelLocked(service, &model)
	return model, ok
}

// modelLocked builds the (possibly prior-blended) model into out; m.mu must
// be held.
func (m *Monitor) modelLocked(service string, out *Model) bool {
	h := m.svc[service]
	if h == nil || (h.count == 0 && h.prior == nil) {
		*out = Model{Service: service}
		return false
	}
	if h.count == 0 {
		// Nothing observed locally yet: the warm-started prior *is* the
		// model, trusted at its decayed confidence.
		*out = m.priorModel(h, service)
		return true
	}
	if !h.fitValid {
		h.windowFit(service, &h.fit)
		h.fitValid = true
	}
	*out = h.fit
	// What follows depends on the clock and is evaluated on every call.
	age := m.now().Sub(h.lastAt)
	if age < 0 {
		age = 0
	}
	out.AgeSeconds = age.Seconds()
	out.Confidence = math.Exp2(-age.Seconds() / m.cfg.HalfLife.Seconds())
	if h.prior != nil {
		*out = m.blendPrior(*out, h)
	}
	return true
}

// windowFit writes into out the part of the model that depends on the
// history alone, not on the clock: the lifetime count, the EWMA, and the means
// and least-squares fits over the ring.
func (h *history) windowFit(service string, out *Model) {
	*out = Model{
		Service:     service,
		Samples:     h.count,
		Window:      len(h.ring),
		EWMASeconds: h.ewmaSeconds,
	}
	// Windowed least squares of duration on work, over samples that carry a
	// work estimate. Needs spread in work sizes: with a single distinct work
	// value the slope is undefined and the EWMA is the better model.
	var n, sw, sd, sww, swd float64
	// The same windowed fit of observed queue wait on admission depth, over
	// samples that observed their wait.
	var wn, wx, wy, wxx, wxy float64
	var qsum float64
	for _, s := range h.ring {
		qsum += float64(s.QueueDepth)
		if s.Wait > 0 {
			x, y := float64(s.QueueDepth), s.Wait.Seconds()
			wn++
			wx += x
			wy += y
			wxx += x * x
			wxy += x * y
		}
		if s.WorkGFlops <= 0 {
			continue
		}
		w, d := s.WorkGFlops, s.Duration.Seconds()
		n++
		sw += w
		sd += d
		sww += w * w
		swd += w * d
	}
	out.MeanQueueDepth = qsum / float64(len(h.ring))
	if n > 0 {
		out.MeanWorkGFlops = sw / n
	}
	if n >= 2 {
		det := n*sww - sw*sw
		if det > 1e-9*sww { // guard against a degenerate (constant-work) window
			slope := (n*swd - sw*sd) / det
			if slope > 0 {
				out.PerGFlopSeconds = slope
				out.BaseSeconds = (sd - slope*sw) / n
				out.MeasuredGFlops = 1 / slope
			}
		}
	}
	if wn > 0 {
		out.MeanWaitSeconds = wy / wn
	}
	if wn >= 2 {
		det := wn*wxx - wx*wx
		// Depths are small integers, so guard the determinant absolutely as
		// well as relatively (a constant-depth window must decline the fit).
		if det > 1e-9 && det > 1e-9*wxx {
			slope := (wn*wxy - wx*wy) / det
			if slope > 0 {
				out.WaitPerDepthSeconds = slope
				out.WaitBaseSeconds = (wy - slope*wx) / wn
			}
		}
	}
}

// priorConfidence is the installed prior's confidence decayed from its
// installation on this monitor's clock; m.mu must be held.
func (m *Monitor) priorConfidence(h *history) float64 {
	age := m.now().Sub(h.priorAt)
	if age < 0 {
		age = 0
	}
	return h.prior.Confidence * math.Exp2(-age.Seconds()/m.cfg.HalfLife.Seconds())
}

// priorModel projects the installed prior as the service's whole model (no
// local history yet); m.mu must be held.
func (m *Monitor) priorModel(h *history, service string) Model {
	out := *h.prior
	out.Service = service
	out.Window = 0
	out.Samples = int(h.priorWeight + 0.5)
	if out.Samples < 1 {
		out.Samples = 1
	}
	out.Confidence = m.priorConfidence(h)
	out.AgeSeconds = m.now().Sub(h.priorAt).Seconds()
	if out.AgeSeconds < 0 {
		out.AgeSeconds = 0
	}
	out.Warm = true
	out.PriorWeight = h.priorWeight
	return out
}

// blendPrior folds the gossiped cluster prior into the locally fitted model.
// Weights are effective sample counts — the local lifetime count against the
// prior's discounted weight, which additionally fades linearly as the local
// ring fills — so a handful of local solves already shift the blend and a
// full window of local history retires the prior entirely; m.mu must be
// held.
func (m *Monitor) blendPrior(local Model, h *history) Model {
	p := *h.prior
	wl := float64(h.count)
	wp := h.priorWeight * (1 - float64(len(h.ring))/float64(m.cfg.Window))
	if wp <= 0 {
		return local
	}
	f := wl / (wl + wp)
	mix := func(a, b float64) float64 { return f*a + (1-f)*b }
	// Quantities either side may lack (slope/base pairs, means over optional
	// fields) blend only when both sides have them, else keep whichever side
	// does.
	mixPair := func(la, lb, pa, pb float64) (float64, float64) {
		switch {
		case la > 0 && pa > 0:
			return mix(la, pa), mix(lb, pb)
		case la > 0:
			return la, lb
		default:
			return pa, pb
		}
	}
	out := local
	out.EWMASeconds = mix(local.EWMASeconds, p.EWMASeconds)
	out.PerGFlopSeconds, out.BaseSeconds = mixPair(local.PerGFlopSeconds, local.BaseSeconds, p.PerGFlopSeconds, p.BaseSeconds)
	if out.PerGFlopSeconds > 0 {
		out.MeasuredGFlops = 1 / out.PerGFlopSeconds
	} else {
		out.MeasuredGFlops = 0
	}
	out.WaitPerDepthSeconds, out.WaitBaseSeconds = mixPair(local.WaitPerDepthSeconds, local.WaitBaseSeconds, p.WaitPerDepthSeconds, p.WaitBaseSeconds)
	out.MeanWorkGFlops, _ = mixPair(local.MeanWorkGFlops, 0, p.MeanWorkGFlops, 0)
	out.MeanWaitSeconds, _ = mixPair(local.MeanWaitSeconds, 0, p.MeanWaitSeconds, 0)
	out.MeanQueueDepth = mix(local.MeanQueueDepth, p.MeanQueueDepth)
	out.Samples = h.count + int(wp+0.5)
	// Confidence blends the local staleness signal with the prior's decayed
	// trust, floored at the local value: fresh local samples must never be
	// trusted less for having a prior behind them.
	out.Confidence = math.Max(local.Confidence, mix(local.Confidence, m.priorConfidence(h)))
	out.Warm = true
	out.PriorWeight = wp
	return out
}

// warmStartDiscount is how much a borrowed cluster model is trusted relative
// to locally observed history: half weight, so local measurements take over
// quickly once the SeD starts solving for itself.
const warmStartDiscount = 0.5

// WarmStart installs a gossiped cluster model as the prior for its service —
// the cross-SeD sharing entry point: a fresh SeD joining a cluster the grid
// has already characterized seeds its forecasts from the cluster model
// instead of the power-aware fallback. The prior weighs
// Confidence × min(Samples, Window) × ½ effective samples in later blends; a
// lighter prior never replaces a heavier installed one, and priors with no
// usable duration signal are ignored.
func (m *Monitor) WarmStart(prior Model) {
	if prior.Service == "" || prior.Samples <= 0 || prior.EWMASeconds <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	eff := math.Min(float64(prior.Samples), float64(m.cfg.Window))
	w := prior.Confidence * eff * warmStartDiscount
	if w <= 0 {
		return
	}
	h := m.svc[prior.Service]
	if h == nil {
		h = &history{ring: make([]Sample, 0, m.cfg.Window)}
		m.svc[prior.Service] = h
	}
	if h.prior != nil && h.priorWeight >= w {
		return
	}
	p := prior
	p.Warm = false // the stored prior is the raw cluster model
	h.prior = &p
	h.priorWeight = w
	h.priorAt = m.now()
}

// Forecast predicts the solve duration of work GFlops for a service.
// ok is false (and seconds negative) when there is no history to predict
// from — callers must then fall back to static information such as the
// advertised power.
func (m *Monitor) Forecast(service string, workGFlops float64) (seconds float64, ok bool) {
	model, ok := m.Model(service)
	if !ok {
		return -1, false
	}
	return model.SolveSeconds(workGFlops), true
}

// Services lists the services with history, sorted.
func (m *Monitor) Services() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.svc))
	for name := range m.svc {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Metrics exposes the CoRI-style extended estimation tags for a service,
// named after the EST_* constants of DIET's CoRI API. Absent service →
// empty map.
func (m *Monitor) Metrics(service string) map[string]float64 {
	model, ok := m.Model(service)
	if !ok {
		return map[string]float64{}
	}
	warm := 0.0
	if model.Warm {
		warm = 1
	}
	return map[string]float64{
		"EST_NBSAMPLES":      float64(model.Samples),
		"EST_TCOMP":          model.EWMASeconds,
		"EST_TCOMP_BASE":     model.BaseSeconds,
		"EST_TCOMP_PERGF":    model.PerGFlopSeconds,
		"EST_MEASURED_FLOP":  model.MeasuredGFlops,
		"EST_DELIVERED":      model.DeliveredGFlops(),
		"EST_CONFIDENCE":     model.Confidence,
		"EST_AGE_S":          model.AgeSeconds,
		"EST_AVG_QUEUE":      model.MeanQueueDepth,
		"EST_TWAIT_BASE":     model.WaitBaseSeconds,
		"EST_TWAIT_PERDEPTH": model.WaitPerDepthSeconds,
		"EST_WARM":           warm,
	}
}
