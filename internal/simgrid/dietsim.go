package simgrid

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/cori"
	"repro/internal/deploy"
	"repro/internal/logsvc"
	"repro/internal/platform"
	"repro/internal/scheduler"
)

// ExperimentConfig describes the paper's campaign (§6.1): one low-resolution
// 128³, 100 Mpc/h simulation (phase 1) followed by 100 zoom sub-simulations
// submitted simultaneously (phase 2), on the PaperDeployment of 11 SeDs over
// the Grid'5000 platform. The middleware cost model and the work sizes are
// the package's calibration constants, not fields: no caller varies them.
type ExperimentConfig struct {
	Deployment platform.Deployment
	Policy     scheduler.Policy

	NRequests int // phase-2 sub-simulations (paper: 100)
	// Seed drives the per-request work jitter and the finding-time noise.
	Seed int64

	// BatchMode routes every solve through an OAR-style reservation adding
	// BatchGrantS seconds before each job attempt starts (ablation A3).
	BatchMode   bool
	BatchGrantS float64
	// BatchFixedWallS is the fixed walltime (seconds) every reservation
	// requests in BatchMode — the static grant the paper's submissions used.
	// A job whose solve outlives its walltime is killed at expiry and
	// requeued with a widened grant, mirroring batch.System{EnforceWalltime}
	// + batch.ForecastExecutor. 0 disables walltime enforcement (an
	// unbounded grant).
	BatchFixedWallS float64
	// BatchForecast sizes each reservation's walltime from the SeD's CoRI
	// model through batch.WalltimePolicy instead of the fixed grant — the
	// forecast-sized reservations of batch.ForecastExecutor in virtual time.
	// Requires Forecast; SeDs whose monitor is cold for the service fall
	// back to BatchFixedWallS.
	BatchForecast bool

	// ArrivalGapS spaces the phase-2 submissions instead of the paper's
	// all-at-once burst; Figure 6's latency growth is pure burst queueing,
	// and spacing arrivals beyond the system's drain rate flattens it.
	ArrivalGapS float64

	// Forecast attaches a CoRI monitor (internal/cori) to every SeD, running
	// in virtual time: completed solves train per-SeD duration models and
	// every estimate carries the forecast extension, mirroring what
	// diet.SeD.Estimate reports in the live middleware. Required for the
	// forecastaware/contentionaware policies to see history.
	Forecast bool
	// Monitors optionally seeds per-SeD monitors (keyed by SeD name), so a
	// campaign can start with models trained by an earlier run; monitors for
	// missing names are created fresh. RunExperimentRounds uses this to
	// carry learning across rounds. Implies monitors are rebound to this
	// run's virtual clock.
	Monitors map[string]*cori.Monitor
	// CoRI tunes the monitors created by this run.
	CoRI cori.Config
	// TruePowerFactor skews each named SeD's *actual* compute speed to
	// factor × its advertised power, modelling miscalibrated or degraded
	// resources. Estimates still advertise the nominal power, so static
	// power-aware scheduling is misled while the forecaster measures the
	// truth. Missing names default to 1 (honest).
	TruePowerFactor map[string]float64
	// PlannedPower overrides the power each named SeD *advertises* in its
	// estimation vector — the simulator's mirror of re-deploying with a
	// measured-power plan (deploy.Replan → Plan.PowerByName): the schedulers
	// see the planned powers while the platform keeps its true speeds.
	// Missing names keep the deployment's advertised power.
	PlannedPower map[string]float64

	// ReplanIntervalS enables the live-replanning mirror (diet.Agent
	// ReplanInterval + ApplyPlan in virtual time): every interval the
	// campaign re-plans the deployment from the SeDs' current monitors
	// (deploy.Replan over MonitorSource for ramsesZoom2, the service that
	// dominates the campaign) and applies the result online. A SeD whose
	// effective power moved re-advertises it; a SeD whose placement changed
	// pays a drain pause before accepting new work and its monitor rides a
	// Snapshot/Restore round-trip — the reparent protocol's "model travels
	// with the move" guarantee, exercised rather than assumed. Requires
	// Forecast. 0 disables.
	ReplanIntervalS float64
	// LiveParent optionally scrambles the initial live placement (SeD name →
	// agent name). Missing names start under their cluster's planned LA
	// ("LA-<cluster>"); the replanning mirror migrates mismatches back to
	// the planned placement.
	LiveParent map[string]string

	// DriftAtS and DriftPowerFactor model mid-campaign platform drift: at
	// DriftAtS virtual seconds each named SeD's *true* speed is rescaled to
	// factor × its deployment-advertised power (replacing any
	// TruePowerFactor skew for that SeD). Advertised estimates are untouched
	// — only measurement can see drift. Empty map = no drift.
	DriftAtS         float64
	DriftPowerFactor map[string]float64

	// Failures injects the chaos schedule (failure.go): crashes, restarts,
	// partitions, heals and in-flight message losses at virtual times. Empty
	// = the healthy campaign, byte-identical to the no-failure simulator.
	Failures []FailureEvent
	// SelfHealing arms the recovery mirror for the failure schedule: crashed
	// or partitioned nodes are detected after failureDetectS and their
	// in-flight work is requeued on the survivors, restarts rejoin warm via
	// a CoRI snapshot round-trip, and lost dispatches are resubmitted after
	// failureRetryS — the virtual-time twin of heartbeat-miss eviction,
	// -cori-snapshot restore and kill-and-requeue in internal/diet. Off = the
	// fragile hierarchy: work on a dead node waits for its restart, or is
	// lost outright when no restart is scheduled.
	SelfHealing bool

	// Spans, when set, receives the same span taxonomy the live stack emits
	// — submit, schedule, queue, reserve, overrun_kill, requeue, solve,
	// complete — with virtual-time stamps (nanoseconds since campaign
	// start). logsvc.Bus implements it, so a simulated campaign's trace
	// renders in the same tooling (cmd/dietmon, chrome://tracing export) as
	// a live one.
	Spans logsvc.SpanSink
}

// The campaign's calibration to §6.2.
const (
	// orbOverheadMS is the CORBA marshalling and agent processing of one
	// find (the paper's find time is ≈ 49.8 ms in all).
	orbOverheadMS = 31.5
	// initMS is the service initiation on the SeD (paper: 20.8 ms).
	initMS = 20.8
	// namelistKB is the namelist file shipped with each request. It is a
	// float: namelistKB/1024 must not be integer division.
	namelistKB = 4.0
	// workJitter is the fractional standard deviation of per-request work
	// (zoom regions differ in clustering); deterministic via Seed.
	workJitter = 0.05
	// defaultBatchWallS is the fixed reservation walltime of the paper run:
	// a 2 h user grant, comfortably above the ~1h24 mean solve.
	defaultBatchWallS = 7200.0
)

// phase2Service is the zoom service that dominates the campaign: the replan
// pass plans by it, and its model is the one a restart or a move must carry.
const phase2Service = "ramsesZoom2"

// The recovery mirrors' timings, the live stack's defaults.
const (
	// replanPauseS is the drain pause a migrated SeD pays before accepting
	// new work (the live protocol waits out in-flight solves).
	replanPauseS = 30.0
	// failureDetectS is the crash/partition detection delay: three missed
	// 30 s heartbeats, the live Agent.SweepChildren default.
	failureDetectS = 90.0
	// failureRetryS is the client resubmission backoff after a timed-out or
	// lost dispatch.
	failureRetryS = 30.0
)

// grid5000 is the platform every campaign runs on, and the work sizes in
// GFlop are calibrated so that a mean-power SeD of the paper's deployment
// takes 1h15m11s for phase 1 and 1h24m01s for a phase-2 request, the §6.2
// means — whatever deployment a campaign is given.
var (
	grid5000         = platform.Grid5000()
	paperMeanPower   = meanPower(platform.PaperDeployment())
	phase1WorkGFlops = 4511 * paperMeanPower
	phase2WorkGFlops = 5041 * paperMeanPower
)

// DefaultExperiment returns the configuration reproducing the paper run.
func DefaultExperiment(policy scheduler.Policy) ExperimentConfig {
	return ExperimentConfig{
		Deployment:      platform.PaperDeployment(),
		Policy:          policy,
		NRequests:       100,
		Seed:            1,
		BatchFixedWallS: defaultBatchWallS,
	}
}

// meanPower averages SeD powers over a deployment.
func meanPower(dep platform.Deployment) float64 {
	var sum float64
	for _, s := range dep.SeDs {
		sum += s.PowerGFlops()
	}
	return sum / float64(len(dep.SeDs))
}

// RequestRecord traces one request through the middleware.
type RequestRecord struct {
	ID         int     // request number (0 = phase 1, 1..N = phase 2)
	SeD        string  // chosen server
	SubmitS    float64 // virtual time the client issued the request
	StartS     float64 // virtual time the solve began computing
	EndS       float64 // virtual time the solve finished
	FindingMS  float64 // MA round trip: the Figure 6 "Find" series
	LatencyMS  float64 // transfer + queue wait + init: the Figure 6 "Latency" series
	WorkGFlops float64
	// PredictedS is the solve duration the chosen SeD's view implied at
	// dispatch: the CoRI model's forecast when one was trusted
	// (PredictedByModel true), else the advertised-power estimate — the
	// misprediction signal the warm-start ablation measures.
	PredictedS       float64
	PredictedByModel bool
}

// MispredictPct is the relative forecast error of this request, in percent.
func (r RequestRecord) MispredictPct() float64 {
	d := r.DurationS()
	if d <= 0 {
		return 0
	}
	return 100 * math.Abs(r.PredictedS-d) / d
}

// DurationS returns the compute duration.
func (r RequestRecord) DurationS() float64 { return r.EndS - r.StartS }

// SeDSummary aggregates one SeD's activity (the Figure 5 data).
type SeDSummary struct {
	Name      string
	Site      string
	Power     float64
	Requests  []RequestRecord // Gantt items, in execution order
	BusyHours float64
}

// BatchStats aggregates the reservation behaviour of a BatchMode campaign —
// the virtual-time mirror of batch.SystemStats + batch.ExecStats.
type BatchStats struct {
	Reservations  int     // solves routed through a reservation
	ForecastSized int     // walltimes derived from a trusted CoRI forecast
	FixedGrant    int     // walltimes from the fixed grant
	OverrunKills  int     // attempts killed at walltime expiry
	Requeues      int     // resubmissions after a kill
	IdlePadS      float64 // walltime granted but unused on successful attempts
	ReservedS     float64 // total walltime requested over all attempts
	WastedS       float64 // compute seconds thrown away by killed attempts
}

// OverrunPadCostS is the scalar reservation-quality score: compute seconds
// wasted by kills plus idle walltime padded onto successful grants — the
// quantity forecast-sized reservations exist to shrink.
func (b BatchStats) OverrunPadCostS() float64 { return b.WastedS + b.IdlePadS }

// ReplanEvent records one live-replanning pass of a campaign.
type ReplanEvent struct {
	AtS          float64
	PowerUpdates int      // SeDs whose advertised power the pass moved
	Moved        []string // SeDs migrated to a new parent (paid the drain pause)
	// MovedModelTrusted records, per migrated SeD, whether its duration
	// model was trusted immediately *after* the snapshot round-trip — the
	// "no cold restart" guarantee a reparent must uphold whenever the model
	// was trusted before the move.
	MovedModelTrusted map[string]bool
}

// ExperimentResult is the full campaign outcome.
type ExperimentResult struct {
	Policy        string
	Phase1        RequestRecord
	Records       []RequestRecord // phase 2, by request number
	PerSeD        []SeDSummary    // ordered as the deployment lists SeDs
	TotalS        float64         // makespan of the whole campaign
	Phase1S       float64
	MeanPhase2S   float64
	SequentialS   float64       // sum of all compute durations: the no-grid baseline
	OverheadMS    float64       // mean per-request middleware overhead (find + init)
	TotalOverhead float64       // summed overhead, seconds (paper: ≈7 s)
	Batch         BatchStats    // reservation metrics; zero unless BatchMode
	Replans       []ReplanEvent // live-replanning passes; empty unless enabled
	// FailureLog, SolvesLost and Requeued are the failure-injection outcome
	// (zero/empty unless the config carries a failure schedule): the
	// virtual-time trace of injections and recovery actions, the requests
	// that never completed, and the recovery resubmissions.
	FailureLog []FailureLogEntry
	SolvesLost int
	Requeued   int
}

// FirstRecordOn returns the first phase-2 request dispatched to a SeD at or
// after a virtual time (by submission), or nil — how the replan ablation
// checks a migrated SeD's first post-move forecast.
func (r *ExperimentResult) FirstRecordOn(sed string, afterS float64) *RequestRecord {
	var best *RequestRecord
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.SeD != sed || rec.SubmitS < afterS {
			continue
		}
		if best == nil || rec.SubmitS < best.SubmitS {
			best = rec
		}
	}
	return best
}

// sedState is the simulator's view of one SeD.
type sedState struct {
	place      platform.SeDPlacement
	truePower  float64 // actual delivered GFlops (advertised × TruePowerFactor)
	advertised float64 // power the estimate reports (PlannedPower override or the placement's)
	parent     string  // current live parent agent (live-replanning mirror)
	monitor    *cori.Monitor
	pending    map[string]int // accepted-but-unfinished solves, by service
	queue      int            // waiting requests
	running    int            // 0 or 1 (capacity 1, as in the paper)
	freeAt     float64        // virtual time the current queue drains
	lastSolve  float64        // seconds; <0 until the SeD has completed a solve
	records    []RequestRecord

	// Failure-injection state (failure.go); zero values = healthy. Only
	// campaigns with a failure schedule touch any of it.
	down        bool                  // crashed and not yet restarted
	downForever bool                  // fragile mode: crashed with no scheduled restart
	excluded    bool                  // self-healing: evicted from scheduling after detection
	partitioned bool                  // computing but cut off; results wait for the heal
	waitUntil   float64               // fragile mode: virtual time the node is reachable again
	lossBudget  int                   // dispatches still to drop in flight
	inflight    []*simJob             // accepted but uncompleted jobs (failure runs only)
	heldDone    []func(healS float64) // partition: deferred result deliveries
}

// estimate writes the scheduler's view of the SeD into est, mirroring
// diet.SeD.Estimate: static fields from the advertised configuration, and —
// when a CoRI monitor is attached — the forecast extension from its model.
func (s *sedState) estimate(service string, est *scheduler.Estimate) {
	*est = scheduler.Estimate{
		ServerID:         s.place.Name,
		Service:          service,
		Capacity:         1,
		Running:          s.running,
		QueueLen:         s.queue,
		PowerGFlops:      s.advertised,
		LastSolveSeconds: s.lastSolve,
	}
	if s.monitor != nil {
		if model, ok := s.monitor.Model(service); ok {
			model.ApplyToEstimate(est, s.monitor.DrainEstimate(model, s.pending, s.queue+s.running, 1))
		}
	}
}

// RunExperiment replays the campaign in virtual time and returns every
// quantity the paper reports.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	if len(cfg.Deployment.SeDs) == 0 {
		return nil, fmt.Errorf("simgrid: experiment needs a deployment")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("simgrid: experiment needs a scheduling policy")
	}
	if cfg.NRequests < 1 {
		return nil, fmt.Errorf("simgrid: NRequests must be >= 1, got %d", cfg.NRequests)
	}
	if cfg.BatchForecast && !cfg.Forecast {
		return nil, fmt.Errorf("simgrid: BatchForecast needs Forecast monitors attached")
	}
	if cfg.ReplanIntervalS > 0 && !cfg.Forecast {
		return nil, fmt.Errorf("simgrid: ReplanIntervalS needs Forecast monitors attached")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sim := NewSim()
	batchExhausted := 0

	// remonitor gives a SeD a fresh monitor on this run's virtual clock and
	// hands it back through cfg.Monitors, so multi-round drivers and tests
	// can carry or inspect it. A warm rebuild first restores the SeD's
	// current model — the snapshot round-trip a restart or a reparent
	// rides — and keeps the old monitor if the restore fails.
	remonitor := func(s *sedState, warm bool) {
		mcfg := cfg.CoRI
		mcfg.Now = virtualClock(sim)
		fresh := cori.NewMonitor(mcfg)
		if warm {
			if err := fresh.Restore(s.monitor.Snapshot()); err != nil {
				return
			}
		}
		s.monitor = fresh
		if cfg.Monitors != nil {
			cfg.Monitors[s.place.Name] = fresh
		}
	}

	seds := make([]*sedState, len(cfg.Deployment.SeDs))
	byName := make(map[string]*sedState, len(seds))
	for i, p := range cfg.Deployment.SeDs {
		truePower := p.PowerGFlops()
		if f, ok := cfg.TruePowerFactor[p.Name]; ok && f > 0 {
			truePower *= f
		}
		advertised := p.PowerGFlops()
		if v, ok := cfg.PlannedPower[p.Name]; ok && v > 0 {
			advertised = v
		}
		parent := "LA-" + p.Cluster // the planned placement (deploy.TopologyWith)
		if lp, ok := cfg.LiveParent[p.Name]; ok && lp != "" {
			parent = lp
		}
		seds[i] = &sedState{place: p, truePower: truePower, advertised: advertised, parent: parent, lastSolve: -1, pending: make(map[string]int)}
		byName[p.Name] = seds[i]
		if cfg.Forecast {
			if m := cfg.Monitors[p.Name]; m != nil {
				m.SetNow(virtualClock(sim))
				seds[i].monitor = m
			} else {
				remonitor(seds[i], false)
			}
		}
	}
	maSite := cfg.Deployment.MASite
	res := &ExperimentResult{Policy: cfg.Policy.Name()}

	// findingTime models one MA submission: client→MA round trip, the
	// parallel estimate collection through the LA hierarchy (bounded by the
	// slowest site round trip), and the ORB/agent processing constant.
	findingTime := func() float64 {
		clientRTT := 2 * grid5000.Latency(maSite, maSite).Seconds() * 1000
		worst := 0.0
		for _, la := range cfg.Deployment.LAs {
			rtt := 2 * grid5000.Latency(maSite, la.Site).Seconds() * 1000
			if rtt > worst {
				worst = rtt
			}
		}
		jitter := rng.NormFloat64() * 0.8
		return clientRTT + worst + orbOverheadMS + jitter
	}

	// Failure-injection plumbing. With no schedule every branch below is
	// dead and the campaign is byte-identical to the no-failure simulator.
	failEnabled := len(cfg.Failures) > 0
	lost := 0
	flog := func(node, kind, detail string) {
		res.FailureLog = append(res.FailureLog, FailureLogEntry{AtS: sim.Now(), Node: node, Kind: kind, Detail: detail})
	}

	// choose ranks the SeDs with the plug-in policy and returns the winner.
	// Under self-healing, nodes evicted by failure detection leave the
	// candidate set, and a job that already bounced off a node avoids it —
	// the client-failover mirror. Every call fills the same estimate buffer:
	// no policy keeps ests beyond Rank.
	estBuf := make([]scheduler.Estimate, len(seds))
	choose := func(service string, work float64, seq int, avoid map[string]bool) *sedState {
		n := 0
		for _, s := range seds {
			if cfg.SelfHealing && s.excluded {
				continue
			}
			if avoid[s.place.Name] {
				continue
			}
			s.estimate(service, &estBuf[n])
			n++
		}
		if n == 0 {
			// Everything excluded or avoided: fall back to the full set
			// rather than dropping the request on the floor.
			for _, s := range seds {
				s.estimate(service, &estBuf[n])
				n++
			}
		}
		ests := estBuf[:n]
		order := cfg.Policy.Rank(scheduler.Request{Service: service, Seq: seq, WorkGFlops: work}, ests)
		return byName[ests[order[0]].ServerID]
	}

	// emitSpan mirrors the live stack's request tracing in virtual time:
	// stamps are nanoseconds since campaign start, kinds are the shared
	// logsvc taxonomy, so the trace renders in the same tooling.
	emitSpan := func(requestID, component, kind, service, detail string, s0, s1 float64) {
		if cfg.Spans == nil {
			return
		}
		cfg.Spans.PublishSpan(logsvc.Span{
			RequestID: requestID, Component: component, Kind: kind,
			Service: service, Detail: detail,
			StartNanos: int64(s0 * 1e9), EndNanos: int64(s1 * 1e9),
		})
	}

	// scheduleOn lays one job's timeline onto a SeD: queue wait, optional
	// batch reservation, solve, completion. Under failure injection the
	// scheduled events carry the job's placement generation, so a later
	// cancel-and-requeue turns them into no-ops.
	scheduleOn := func(sed *sedState, job *simJob) {
		id, service, work := job.id, job.service, job.work
		predS, predByModel := sed.monitor.PredictSeconds(service, work, sed.advertised)
		now := sim.Now()
		// The span labels are built only for a run that is traced.
		var reqID, sedComp, served string
		if cfg.Spans != nil {
			reqID = fmt.Sprintf("sim-%d", id)
			sedComp = "SeD:" + sed.place.Name
			served = "server " + sed.place.Name
		}
		transferS := grid5000.TransferTime(maSite, sed.place.Site, namelistKB/1024).Seconds()
		arriveS := now + transferS
		startS := arriveS
		if sed.freeAt > startS {
			startS = sed.freeAt
		}
		if failEnabled && !cfg.SelfHealing && sed.waitUntil > startS {
			// Fragile mode: the node is cut off and nothing reroutes the
			// work — it reaches the queue when the schedule says it can.
			startS = sed.waitUntil
		}
		startS += initMS / 1000
		durS := work / sed.truePower
		// The queue span covers FIFO wait + init, like the live SeD's; batch
		// grant delays and kills get their own reserve/overrun_kill spans.
		emitSpan(reqID, sedComp, logsvc.KindQueue, service, "", arriveS, startS)
		if cfg.BatchMode {
			// Reservation: size the walltime through batch.WalltimePolicy.Size,
			// the call the live ForecastExecutor makes (the CoRI forecast, or
			// the fixed grant for a cold monitor), pay the grant delay per
			// attempt, and replay kill-and-requeue when the solve outlives its
			// grant — batch.System{EnforceWalltime} + batch.ForecastExecutor
			// in virtual time.
			pol := batch.WalltimePolicy{Fixed: time.Duration(cfg.BatchFixedWallS * float64(time.Second))}
			var mon *cori.Monitor
			if cfg.BatchForecast {
				mon = sed.monitor
			}
			w, sized := pol.Size(mon, service, work)
			wall := w.Seconds()
			if cfg.BatchFixedWallS <= 0 && !cfg.BatchForecast {
				// No grant and no forecasting: walltimes are unbounded (the
				// pre-enforcement A3 behaviour).
				wall = 0
			}
			res.Batch.Reservations++
			if sized {
				res.Batch.ForecastSized++
			} else {
				res.Batch.FixedGrant++
			}
			startS += cfg.BatchGrantS
			emitSpan(reqID, sedComp, logsvc.KindReserve, service, "attempt 1",
				startS-cfg.BatchGrantS, startS)
			if wall > 0 {
				// Mirror the live executor's retry budget: a solve that still
				// overruns after batch.MaxAttempts grants would fail for real,
				// so the campaign must not silently absorb it (checked after
				// the run).
				for attempt := 1; wall < durS; attempt++ {
					if attempt >= batch.MaxAttempts {
						batchExhausted++
						break
					}
					// Killed at expiry: the grant's compute is wasted and the
					// requeued attempt waits for a fresh, widened grant.
					res.Batch.OverrunKills++
					res.Batch.Requeues++
					res.Batch.WastedS += wall
					res.Batch.ReservedS += wall
					emitSpan(reqID, sedComp, logsvc.KindKill, service,
						fmt.Sprintf("attempt %d killed at walltime", attempt),
						startS, startS+wall)
					startS += wall + cfg.BatchGrantS
					emitSpan(reqID, sedComp, logsvc.KindReserve, service,
						fmt.Sprintf("attempt %d", attempt+1),
						startS-cfg.BatchGrantS, startS)
					wall *= batch.RequeueFactor
				}
				res.Batch.ReservedS += wall
				if pad := wall - durS; pad > 0 {
					res.Batch.IdlePadS += pad
				}
			}
		}
		endS := startS + durS
		emitSpan(reqID, sedComp, logsvc.KindSolve, service, "", startS, endS)
		emitSpan(reqID, "client", logsvc.KindComplete, service, served, job.submitS, endS)
		depthAtAdmission := sed.queue + sed.running
		sed.queue++
		sed.pending[service]++
		sed.freeAt = endS
		rec := RequestRecord{
			ID: id, SeD: sed.place.Name,
			SubmitS: job.dispatch0, StartS: startS, EndS: endS,
			FindingMS:        job.findMS,
			LatencyMS:        (startS - job.dispatch0) * 1000, // transfer + queue wait + init
			WorkGFlops:       work,
			PredictedS:       predS,
			PredictedByModel: predByModel,
		}
		job.gen++
		job.cancelled = false
		job.started = false
		gen := job.gen
		if failEnabled {
			sed.inflight = append(sed.inflight, job)
		}
		sim.At(startS, func() {
			if job.cancelled || job.gen != gen {
				return
			}
			job.started = true
			sed.queue--
			sed.running++
		})
		sim.At(endS, func() {
			if job.cancelled || job.gen != gen {
				return
			}
			sed.running--
			sed.pending[service]--
			if sed.pending[service] <= 0 {
				delete(sed.pending, service)
			}
			sed.lastSolve = durS
			if failEnabled {
				sed.dropInflight(job)
			}
			if sed.monitor != nil {
				// The observed wait is everything between arrival at the SeD
				// and compute start (queue + init + batch grants), clamped
				// positive so a depth-0 admission still anchors the
				// wait-on-depth regression.
				wait := time.Duration((startS - arriveS) * float64(time.Second))
				if wait <= 0 {
					wait = time.Millisecond
				}
				sed.monitor.Observe(cori.Sample{
					Service:    service,
					WorkGFlops: work,
					Duration:   time.Duration(durS * float64(time.Second)),
					QueueDepth: depthAtAdmission,
					Wait:       wait,
				})
			}
			if failEnabled && sed.partitioned {
				// The solve finished, but its result cannot cross the cut:
				// delivery — and the client's view of completion — waits for
				// the heal.
				sed.heldDone = append(sed.heldDone, func(healS float64) {
					rec.EndS = healS
					sed.records = append(sed.records, rec)
					job.onDone(rec)
				})
				return
			}
			sed.records = append(sed.records, rec)
			job.onDone(rec)
		})
	}

	// place routes one job: rank, then — under failure injection — intercept
	// dispatches that cannot land (lost in flight, refused by a crashed
	// node, timed out against a partitioned one, or doomed on a dead one).
	var place func(job *simJob)
	bounce := func(job *simJob, sed *sedState, delayS float64) {
		if job.avoid == nil {
			job.avoid = make(map[string]bool)
		}
		job.avoid[sed.place.Name] = true
		job.attempt++
		res.Requeued++
		if len(job.avoid) >= len(seds) {
			// Nowhere left to try this instant: forget the bounce history
			// and retry after the backoff.
			job.avoid = nil
			sim.After(failureRetryS, func() { place(job) })
			return
		}
		if delayS > 0 {
			sim.After(delayS, func() { place(job) })
		} else {
			place(job)
		}
	}
	place = func(job *simJob) {
		now := sim.Now()
		sed := choose(job.service, job.work, job.id, job.avoid)
		var reqID, chose string
		if cfg.Spans != nil {
			reqID = fmt.Sprintf("sim-%d", job.id)
			chose = "chose " + sed.place.Name
		}
		if job.attempt == 1 {
			job.dispatch0 = now
			emitSpan(reqID, "client", logsvc.KindSubmit, job.service, "", job.submitS, now)
			emitSpan(reqID, "MA", logsvc.KindSchedule, job.service, chose, job.submitS, now)
		}
		if failEnabled {
			switch {
			case sed.lossBudget > 0:
				// The dispatch vanishes in flight between the MA's answer and
				// the SeD's queue.
				sed.lossBudget--
				if cfg.SelfHealing {
					flog(sed.place.Name, "requeue", fmt.Sprintf("req %d lost in flight, resubmitted", job.id))
					emitSpan(reqID, "client", logsvc.KindRequeue, job.service,
						fmt.Sprintf("lost in flight to %s", sed.place.Name), now, now+failureRetryS)
					bounce(job, sed, failureRetryS)
				} else {
					lost++
					flog(sed.place.Name, "lost", fmt.Sprintf("req %d lost in flight, never resubmitted", job.id))
				}
				return
			case cfg.SelfHealing && sed.down:
				// Connection refused: the client fails over immediately.
				flog(sed.place.Name, "requeue", fmt.Sprintf("req %d refused by crashed %s", job.id, sed.place.Name))
				emitSpan(reqID, "client", logsvc.KindRequeue, job.service, sed.place.Name+" refused", now, now)
				bounce(job, sed, 0)
				return
			case cfg.SelfHealing && sed.partitioned:
				// Unreachable, not refused: the call times out before the
				// client fails over.
				flog(sed.place.Name, "requeue", fmt.Sprintf("req %d timed out against partitioned %s", job.id, sed.place.Name))
				emitSpan(reqID, "client", logsvc.KindRequeue, job.service, sed.place.Name+" unreachable", now, now+failureRetryS)
				bounce(job, sed, failureRetryS)
				return
			case !cfg.SelfHealing && sed.downForever:
				// Nothing detects the dead node; the request joins a queue
				// that will never drain.
				lost++
				sed.queue++
				sed.pending[job.service]++
				flog(sed.place.Name, "lost", fmt.Sprintf("req %d routed to dead node", job.id))
				return
			}
		}
		scheduleOn(sed, job)
	}

	// dispatch queues one request on a SeD and returns its completed record
	// via the callback when the solve finishes.
	dispatch := func(id int, service string, work float64, findMS float64, onDone func(RequestRecord)) {
		place(&simJob{
			id: id, service: service, work: work, findMS: findMS,
			submitS: sim.Now() - findMS/1000, attempt: 1, onDone: onDone,
		})
	}

	// Phase 1 at t=0.
	f1 := findingTime()
	var phase2Submitted bool
	submitPhase2 := func() {}
	sim.At(f1/1000, func() {
		dispatch(0, "ramsesZoom1", phase1WorkGFlops, f1, func(rec RequestRecord) {
			res.Phase1 = rec
			res.Phase1S = rec.EndS
			if !phase2Submitted {
				phase2Submitted = true
				submitPhase2()
			}
		})
	})

	// Phase 2: the client requests all sub-simulations "simultaneously";
	// the MA serves the finds one after another, so request i's submission
	// completes one finding time after request i-1's.
	done := 0
	submitPhase2 = func() {
		t := sim.Now()
		for i := 1; i <= cfg.NRequests; i++ {
			id := i
			work := phase2WorkGFlops * (1 + workJitter*rng.NormFloat64())
			if work < 0.1*phase2WorkGFlops {
				work = 0.1 * phase2WorkGFlops
			}
			f := findingTime()
			t += f/1000 + cfg.ArrivalGapS
			sim.At(t, func() {
				dispatch(id, phase2Service, work, f, func(rec RequestRecord) {
					res.Records = append(res.Records, rec)
					done++
				})
			})
		}
	}

	// Mid-campaign platform drift: the true speeds change under the running
	// hierarchy, invisible to every advertised figure.
	if cfg.DriftAtS > 0 && len(cfg.DriftPowerFactor) > 0 {
		sim.At(cfg.DriftAtS, func() {
			for name, f := range cfg.DriftPowerFactor {
				if s, ok := byName[name]; ok && f > 0 {
					s.truePower = s.place.PowerGFlops() * f
				}
			}
		})
	}

	// The failure schedule: each event is planted in virtual time, and the
	// recovery branch (or its absence) plays out from there.
	if failEnabled {
		if err := validateFailureSchedule(cfg.Failures, byName); err != nil {
			return nil, err
		}
		for _, f := range cfg.Failures {
			f := f
			sed := byName[f.Node]
			switch f.Kind {
			case FailCrash:
				restartS, hasRestart := recoveryAfter(cfg.Failures, f.Node, FailRestart, f.AtS)
				sim.At(f.AtS, func() {
					sed.down = true
					held := sed.cancelInflight()
					flog(f.Node, "crash", fmt.Sprintf("%d in-flight solves killed", len(held)))
					switch {
					case cfg.SelfHealing:
						// Heartbeat detection: the parent evicts the node and
						// requeues its dead work among the survivors — the
						// kill-and-requeue path of the live migration
						// protocol.
						crashS := sim.Now()
						sim.After(failureDetectS, func() {
							sed.excluded = true
							held = append(held, sed.cancelInflight()...)
							flog(f.Node, "detect_evict", fmt.Sprintf("evicted after %.0fs silence, requeueing %d solves", failureDetectS, len(held)))
							for _, j := range held {
								res.Requeued++
								emitSpan(fmt.Sprintf("sim-%d", j.id), sed.parent, logsvc.KindRequeue, j.service,
									"node "+f.Node+" lost", crashS, sim.Now())
								j.attempt++
								if j.avoid == nil {
									j.avoid = make(map[string]bool)
								}
								j.avoid[f.Node] = true
								place(j)
							}
							held = nil
						})
					case hasRestart:
						// Fragile with a restart coming: the clients hang on
						// their calls and the node replays its backlog
						// serially once it is back.
						sed.freeAt = restartS
						for _, j := range held {
							scheduleOn(sed, j)
						}
					default:
						// Fragile, never restarted: the work dies with the
						// node, and nothing stops new requests landing on it.
						sed.downForever = true
						for _, j := range held {
							lost++
							flog(f.Node, "lost", fmt.Sprintf("req %d died with the node", j.id))
						}
					}
				})
			case FailRestart:
				sim.At(f.AtS, func() {
					if !sed.down {
						return // restart without a crash: nothing to do
					}
					sed.down = false
					if cfg.SelfHealing {
						sed.excluded = false
						sed.freeAt = sim.Now()
						// -cori-snapshot warm restore: the monitor rides a
						// snapshot round-trip and comes back trained.
						if sed.monitor != nil {
							remonitor(sed, true)
						}
						_, trusted := sed.monitor.PredictSeconds(phase2Service, phase2WorkGFlops, sed.advertised)
						flog(f.Node, "restart", fmt.Sprintf("rejoined warm, model trusted=%v", trusted))
					} else {
						// No snapshot on disk: the monitor restarts cold and
						// retrains from scratch.
						if sed.monitor != nil {
							remonitor(sed, false)
						}
						flog(f.Node, "restart", "rejoined cold, model retraining from scratch")
					}
				})
			case FailPartition:
				healS, hasHeal := recoveryAfter(cfg.Failures, f.Node, FailHeal, f.AtS)
				sim.At(f.AtS, func() {
					sed.partitioned = true
					flog(f.Node, "partition", "node cut off; solves continue, results held")
					if cfg.SelfHealing {
						sim.After(failureDetectS, func() {
							if !sed.partitioned {
								return // healed before detection
							}
							sed.excluded = true
							flog(f.Node, "detect_evict", fmt.Sprintf("excluded after %.0fs silence", failureDetectS))
						})
					} else if hasHeal {
						sed.waitUntil = healS
					}
				})
			case FailHeal:
				sim.At(f.AtS, func() {
					if !sed.partitioned {
						return
					}
					sed.partitioned = false
					sed.excluded = false
					sed.waitUntil = 0
					healS := sim.Now()
					held := sed.heldDone
					sed.heldDone = nil
					flog(f.Node, "heal", fmt.Sprintf("%d deferred results delivered", len(held)))
					for _, deliver := range held {
						deliver(healS)
					}
				})
			case FailLoss:
				sim.At(f.AtS, func() {
					n := f.Count
					if n <= 0 {
						n = 1
					}
					sed.lossBudget += n
					flog(f.Node, "loss", fmt.Sprintf("next %d dispatches will vanish in flight", n))
				})
			}
		}
	}

	// Live replanning: the virtual-time mirror of a Master Agent running
	// deploy.Replan on its heartbeat and applying the diff with the
	// SeD-migration protocol (diet.Agent.ApplyPlan).
	if cfg.ReplanIntervalS > 0 {
		var tick func()
		tick = func() {
			if done >= cfg.NRequests {
				// The campaign already finished before this tick's scheduled
				// time; a pass now would record phantom events past the
				// makespan.
				return
			}
			mons := make(map[string]*cori.Monitor, len(seds))
			for _, s := range seds {
				if s.monitor != nil {
					mons[s.place.Name] = s.monitor
				}
			}
			plan, _, err := deploy.Replan(cfg.Deployment, deploy.Options{
				Capabilities: deploy.MonitorSource(mons, phase2Service),
			})
			if err == nil {
				ev := ReplanEvent{AtS: sim.Now()}
				power, parent := plan.PowerByName(), plan.ParentByName()
				for _, s := range seds {
					if p, ok := power[s.place.Name]; ok && p > 0 &&
						math.Abs(p-s.advertised) > 1e-9*math.Max(1, s.advertised) {
						s.advertised = p
						ev.PowerUpdates++
					}
					want, ok := parent[s.place.Name]
					if !ok || s.parent == want {
						continue
					}
					// The reparent: drain pause before new work starts, and
					// the monitor rides the same Snapshot/Restore round-trip
					// the live protocol's persistence layer guarantees — the
					// model must come out as trusted as it went in.
					s.parent = want
					if s.freeAt < sim.Now() {
						s.freeAt = sim.Now()
					}
					s.freeAt += replanPauseS
					if s.monitor != nil {
						remonitor(s, true)
					}
					if ev.MovedModelTrusted == nil {
						ev.MovedModelTrusted = make(map[string]bool)
					}
					_, ev.MovedModelTrusted[s.place.Name] = s.monitor.PredictSeconds(phase2Service, phase2WorkGFlops, s.advertised)
					ev.Moved = append(ev.Moved, s.place.Name)
				}
				sort.Strings(ev.Moved)
				res.Replans = append(res.Replans, ev)
			}
			if done < cfg.NRequests {
				sim.After(cfg.ReplanIntervalS, tick)
			}
		}
		sim.After(cfg.ReplanIntervalS, tick)
	}

	sim.Run()
	if batchExhausted > 0 {
		return nil, fmt.Errorf("simgrid: %d reservations exhausted the %d-attempt walltime budget — the live executor would fail these solves; widen the grant or train the forecasts",
			batchExhausted, batch.MaxAttempts)
	}
	if done+lost != cfg.NRequests {
		return nil, fmt.Errorf("simgrid: only %d of %d requests completed (%d lost to failures)", done, cfg.NRequests, lost)
	}
	res.SolvesLost = lost

	sort.Slice(res.Records, func(i, j int) bool { return res.Records[i].ID < res.Records[j].ID })
	var sumDur, sumOverhead float64
	res.TotalS = res.Phase1.EndS
	for _, r := range res.Records {
		if r.EndS > res.TotalS {
			res.TotalS = r.EndS
		}
		sumDur += r.DurationS()
		sumOverhead += (r.FindingMS + initMS) / 1000
	}
	if n := len(res.Records); n > 0 { // a fragile failure run can lose phase-2 requests
		res.MeanPhase2S = sumDur / float64(n)
		res.OverheadMS = sumOverhead / float64(n) * 1000
	}
	res.SequentialS = sumDur + res.Phase1.DurationS()
	res.TotalOverhead = sumOverhead + (res.Phase1.FindingMS+initMS)/1000

	for _, s := range seds {
		sum := SeDSummary{Name: s.place.Name, Site: s.place.Site, Power: s.place.PowerGFlops()}
		for _, r := range s.records {
			if r.ID == 0 {
				continue // phase 1 is reported separately, as in Figure 5
			}
			sum.Requests = append(sum.Requests, r)
			sum.BusyHours += r.DurationS() / 3600
		}
		res.PerSeD = append(res.PerSeD, sum)
	}
	return res, nil
}

// Hours formats seconds as "XXhYYmZZs" the way the paper quotes durations.
func Hours(s float64) string {
	h := int(s) / 3600
	m := (int(s) % 3600) / 60
	sec := int(s) % 60
	return fmt.Sprintf("%dh %dmin %ds", h, m, sec)
}

// PrintFig5 writes the Figure 5 data: the Gantt chart rows (top) and the
// per-SeD request counts and total execution times (bottom).
func (r *ExperimentResult) PrintFig5(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — distribution of the %d sub-simulations over the SeDs (policy=%s)\n",
		len(r.Records), r.Policy)
	fmt.Fprintln(w, "SeD          site      reqs  busy      per-request hours")
	for _, s := range r.PerSeD {
		var items []string
		for _, req := range s.Requests {
			items = append(items, fmt.Sprintf("%.2f", req.DurationS()/3600))
		}
		fmt.Fprintf(w, "%-12s %-9s %4d  %6.2fh  [%s]\n",
			s.Name, s.Site, len(s.Requests), s.BusyHours, strings.Join(items, " "))
	}
}

// PrintFig6 writes the Figure 6 series: per request number, the finding time
// (ms) and the latency (ms, log scale in the paper).
func (r *ExperimentResult) PrintFig6(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 — finding time and latency per request (policy=%s)\n", r.Policy)
	fmt.Fprintln(w, "req   find_ms   latency_ms")
	for _, rec := range r.Records {
		fmt.Fprintf(w, "%3d   %7.1f   %12.1f\n", rec.ID, rec.FindingMS, rec.LatencyMS)
	}
}

// PrintTotals writes the §6.2 headline numbers.
func (r *ExperimentResult) PrintTotals(w io.Writer) {
	fmt.Fprintf(w, "Experiment totals (policy=%s)\n", r.Policy)
	fmt.Fprintf(w, "  whole experiment      %s\n", Hours(r.TotalS))
	fmt.Fprintf(w, "  phase 1               %s\n", Hours(r.Phase1.DurationS()))
	fmt.Fprintf(w, "  phase 2 mean          %s\n", Hours(r.MeanPhase2S))
	fmt.Fprintf(w, "  sequential baseline   %s (%.0fh)\n", Hours(r.SequentialS), r.SequentialS/3600)
	fmt.Fprintf(w, "  speedup               %.1fx\n", r.SequentialS/r.TotalS)
	fmt.Fprintf(w, "  mean find time        %.1f ms\n", r.MeanFindingMS())
	fmt.Fprintf(w, "  overhead per request  %.1f ms\n", r.OverheadMS)
	fmt.Fprintf(w, "  total overhead        %.1f s\n", r.TotalOverhead)
	if r.Batch.Reservations > 0 {
		fmt.Fprintf(w, "  reservations          %d (%d forecast-sized), %d overrun kills, idle pad %s, wasted %s\n",
			r.Batch.Reservations, r.Batch.ForecastSized, r.Batch.OverrunKills,
			Hours(r.Batch.IdlePadS), Hours(r.Batch.WastedS))
	}
}

// MeanFindingMS averages the phase-2 finding times.
func (r *ExperimentResult) MeanFindingMS() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	var sum float64
	for _, rec := range r.Records {
		sum += rec.FindingMS
	}
	return sum / float64(len(r.Records))
}

// MakespanHours returns the campaign makespan in hours.
func (r *ExperimentResult) MakespanHours() float64 { return r.TotalS / 3600 }
