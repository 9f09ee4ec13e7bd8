package diet

import (
	"math"
	"time"

	"repro/internal/metrics"
)

// This file is the diet side of the observability stack: per-solve forecast
// records (predicted vs measured duration, the live counterpart of
// simgrid.RequestRecord) and the Prometheus instruments SeDs and agents feed
// from their hot paths. Instrumentation is opt-in — a nil registry costs a
// single nil check per site.

// SolveRecord pairs one completed solve with the duration forecast the SeD
// held when the request was admitted. It is the live-stack twin of
// simgrid.RequestRecord, so misprediction accounting works identically on
// real deployments and in virtual time.
type SolveRecord struct {
	RequestID  string
	Service    string
	WorkGFlops float64
	// PredictedS is the solve duration the SeD's view implied at admission:
	// the CoRI model forecast when one was trusted (PredictedByModel true),
	// else the advertised-power estimate work/power.
	PredictedS       float64
	PredictedByModel bool
	MeasuredS        float64 // observed compute time, excluding queue wait
	WaitS            float64 // observed wait (FIFO + batch reservation)
	When             time.Time
}

// MispredictPct is the relative forecast error of this solve, in percent —
// the same definition as simgrid.RequestRecord.MispredictPct.
func (r SolveRecord) MispredictPct() float64 {
	if r.MeasuredS <= 0 {
		return 0
	}
	return 100 * math.Abs(r.PredictedS-r.MeasuredS) / r.MeasuredS
}

// ForecastAccuracy summarises a SeD's recent forecast quality for one
// service, computed over the bounded SolveRecord ring.
type ForecastAccuracy struct {
	Service string
	Solves  int
	// MeanAbsPct is the mean |predicted − measured| relative error, percent.
	MeanAbsPct float64
	// ModelShare is the fraction of solves whose prediction came from a
	// trusted CoRI model rather than the advertised-power fallback.
	ModelShare float64
}

// sedSolveRecordCap bounds the per-SeD solve-record ring; old records
// rotate out, so accuracy reflects recent behaviour, not all history.
const sedSolveRecordCap = 512

// ring keeps the newest max values added to it. It grows by append until
// full, so a short-lived owner pays only for what it recorded. The owner
// does the locking.
type ring[T any] struct {
	items []T
	next  int // the oldest item, overwritten next, once the ring is full
}

func (r *ring[T]) add(v T, max int) {
	if len(r.items) < max {
		r.items = append(r.items, v)
		return
	}
	r.items[r.next] = v
	r.next = (r.next + 1) % max
}

// snapshot copies the kept values out, oldest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.items))
	out = append(out, r.items[r.next:]...)
	return append(out, r.items[:r.next]...)
}

// mispredictBuckets grade relative forecast error: a few percent is a good
// model, triple digits is a cold or lying one.
var mispredictBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 200, 400}

// sedMetrics are a SeD's instruments, labelled by SeD and service so one
// registry can serve a whole deployment. Nil when no registry is configured.
type sedMetrics struct {
	sed              string
	started          metrics.CounterVec
	completed        metrics.CounterVec
	failed           metrics.CounterVec
	queueWait        metrics.HistogramVec
	solveSeconds     metrics.HistogramVec
	mispredictPct    metrics.HistogramVec
	forecastAbsPct   metrics.GaugeVec
	queueDepth       metrics.GaugeVec
	batchKills       metrics.CounterVec
	batchRequeues    metrics.CounterVec
	batchReserveWait metrics.HistogramVec
	parentFailovers  metrics.CounterVec
}

func newSedMetrics(reg *metrics.Registry, sed string) *sedMetrics {
	if reg == nil {
		return nil
	}
	return &sedMetrics{
		sed: sed,
		started: reg.NewCounter("diet_sed_solves_started_total",
			"solve requests admitted to the SeD queue", "sed", "service"),
		completed: reg.NewCounter("diet_sed_solves_completed_total",
			"solves finished successfully", "sed", "service"),
		failed: reg.NewCounter("diet_sed_solves_failed_total",
			"admitted solves that returned an error or were still queued when the SeD stopped", "sed", "service"),
		queueWait: reg.NewHistogram("diet_sed_queue_wait_seconds",
			"observed wait between admission and compute start (FIFO + batch reservation)",
			nil, "sed", "service"),
		solveSeconds: reg.NewHistogram("diet_sed_solve_seconds",
			"solve compute time, excluding queue wait", nil, "sed", "service"),
		mispredictPct: reg.NewHistogram("diet_sed_forecast_mispredict_pct",
			"relative error between predicted and measured solve duration, percent",
			mispredictBuckets, "sed", "service"),
		forecastAbsPct: reg.NewGauge("diet_sed_forecast_mean_abs_pct",
			"mean absolute forecast error over the recent solve-record window, percent",
			"sed", "service"),
		queueDepth: reg.NewGauge("diet_sed_queue_depth",
			"queued plus running solves", "sed"),
		batchKills: reg.NewCounter("diet_sed_batch_overrun_kills_total",
			"batch reservation attempts killed at walltime expiry", "sed"),
		batchRequeues: reg.NewCounter("diet_sed_batch_requeues_total",
			"batch reservations resubmitted with a widened grant after a kill", "sed"),
		batchReserveWait: reg.NewHistogram("diet_sed_batch_reserve_wait_seconds",
			"batch-queue wait of one reservation attempt (submit to start)", nil, "sed"),
		parentFailovers: reg.NewCounter("diet_sed_parent_failovers_total",
			"re-adoptions by a fallback parent after the SeD's agent went silent", "sed"),
	}
}

// agentMetrics are an agent's instruments, labelled by agent name. Nil when
// no registry is configured.
type agentMetrics struct {
	agent            string
	requests         metrics.CounterVec
	scheduleSeconds  metrics.HistogramVec
	collectSeconds   metrics.HistogramVec
	gossipRounds     metrics.CounterVec
	evictions        metrics.CounterVec
	collectEvictions metrics.CounterVec
	collectJoined    metrics.CounterVec
	replans          metrics.CounterVec
	migrations       metrics.CounterVec
	peerForwards     metrics.CounterVec
	peerServed       metrics.CounterVec
	peerForwardDrops metrics.CounterVec
}

func newAgentMetrics(reg *metrics.Registry, agent string) *agentMetrics {
	if reg == nil {
		return nil
	}
	return &agentMetrics{
		agent: agent,
		requests: reg.NewCounter("diet_agent_requests_total",
			"client submissions ranked by this agent", "agent"),
		scheduleSeconds: reg.NewHistogram("diet_agent_schedule_seconds",
			"submit handling time: collect, rank, resolve", nil, "agent"),
		collectSeconds: reg.NewHistogram("diet_agent_collect_seconds",
			"subtree estimate collection time answering a parent", nil, "agent"),
		gossipRounds: reg.NewCounter("diet_agent_gossip_rounds_total",
			"CoRI model gossip rounds run", "agent"),
		evictions: reg.NewCounter("diet_agent_evictions_total",
			"children evicted by the heartbeat monitor", "agent"),
		collectEvictions: reg.NewCounter("diet_agent_collect_evictions_total",
			"children evicted after consecutive failed collect probes", "agent"),
		collectJoined: reg.NewCounter("diet_agent_collect_joined_total",
			"collects that joined an identical collect in flight instead of walking the subtree again", "agent"),
		replans: reg.NewCounter("diet_agent_replans_total",
			"replanning passes applied to the live hierarchy", "agent"),
		migrations: reg.NewCounter("diet_agent_migrations_total",
			"SeD children migrated by replanning", "agent"),
		peerForwards: reg.NewCounter("diet_agent_peer_forwards_total",
			"locally unsatisfiable requests forwarded to federated peer MAs", "agent"),
		peerServed: reg.NewCounter("diet_agent_peer_served_total",
			"forwarded requests this MA answered for a federated peer", "agent"),
		peerForwardDrops: reg.NewCounter("diet_agent_peer_forward_drops_total",
			"forwarded requests dropped by the federation loop guard", "agent"),
	}
}
