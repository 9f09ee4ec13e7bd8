package diet

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cori"
	"repro/internal/dataman"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// SolveFunc computes one service request: it reads the profile's IN/INOUT
// arguments and fills its INOUT/OUT arguments, like the C API's
// solve_serviceName functions.
type SolveFunc func(p *Profile) error

// Executor runs a solve body on behalf of a SeD — inline by default, through
// an OAR-style reservation for batch.ForecastExecutor, the "batch submission
// manager" of the paper's conclusion. The SeD hands it the service name and
// the client's work estimate, its own CoRI monitor (so a reservation is sized
// from the same solve history the estimates are built from), the body, and a
// per-attempt callback — nil when nothing would consume it — to be invoked
// after each reservation attempt with its number, the batch-queue wait it
// paid, whether it was killed at its walltime, and its submit and end stamps.
// Execute returns the reservation wait it imposed (submit→start, summed over
// attempts; 0 when the body runs inline): the SeD adds it to its own FIFO
// wait, so the CoRI wait-on-depth regression trains on the wait the batch
// scheduler really imposed — shortened when the reservation was backfilled,
// and excluding the compute a killed attempt threw away. The signature names
// only builtin, time and cori types, so batch implements it without importing
// diet.
type Executor interface {
	Execute(service string, workGFlops float64, monitor *cori.Monitor, run func() error,
		attempt func(n int, wait time.Duration, killed bool, start, end time.Time)) (time.Duration, error)
}

// directExecutor runs the solve in the calling goroutine.
type directExecutor struct{}

func (directExecutor) Execute(_ string, _ float64, _ *cori.Monitor, run func() error,
	_ func(int, time.Duration, bool, time.Time, time.Time)) (time.Duration, error) {
	return 0, run()
}

// SeDConfig configures a Server Daemon.
type SeDConfig struct {
	Name        string  // unique component name
	Parent      string  // name of the parent agent (LA or MA)
	Naming      string  // address of the naming service
	Capacity    int     // concurrent solves; the paper's SeDs run 1
	PowerGFlops float64 // advertised processing power of the backing machines
	MemMB       float64 // advertised memory
	Cluster     string  // cluster label, e.g. "Toulouse" — the model-gossip resource class
	WorkDir     string  // scratch directory for services that write files
	Local       bool    // serve in-process instead of TCP
	ListenAddr  string  // TCP listen address when Local is false ("" = :0)
	Executor    Executor
	// ParentProbe enables the orphan watchdog: every interval the SeD pings
	// its current parent agent and, after ParentMaxMissed consecutive silent
	// probes, walks FallbackParents (typically a sibling LA and the MA) and
	// re-registers under the first that answers — LA failover without an
	// operator. The original parent stays a candidate: if it restarts before
	// any fallback adopts the SeD, re-registration heals the old edge. Zero
	// disables the watchdog.
	ParentProbe time.Duration
	// ParentMaxMissed is the orphan threshold (default 3, like the agents'
	// heartbeat eviction).
	ParentMaxMissed int
	// FallbackParents are tried in order when the parent is declared dead.
	FallbackParents []string
	Events          EventSink // optional LogService-style monitoring sink
	// Metrics is an optional Prometheus registry; when set the SeD feeds
	// solve counters, queue-wait and solve-duration histograms, forecast
	// misprediction and batch kill/requeue counters into it.
	Metrics *metrics.Registry
	// CoRI tunes the resource-information monitor every SeD hosts (window
	// size, EWMA weight, staleness half-life, injectable clock). The zero
	// value selects the cori package defaults.
	CoRI cori.Config
	// Data connects the SeD to the platform data manager (DTM/DAGDA): the
	// SeD hosts a node store under its own name, estimates price the
	// predicted input-transfer time of DataID-referenced inputs, solves
	// fetch missing persistent inputs through the catalog (minting local
	// replicas for reuse), and produced persistent data is published. Nil
	// keeps the SeD data-blind, exactly as before the data plane existed.
	Data dataman.Access
	// Transfers is the per-node-pair bandwidth forecaster transfer pricing
	// reads; typically one monitor shared platform-wide, trained by the
	// catalog's transfer observer. Nil means every transfer is priced at
	// DataFallbackMBps.
	Transfers *cori.TransferMonitor
	// DataFallbackMBps prices transfers over links with no trusted model
	// yet (default 100 MB/s, a conservative WAN figure).
	DataFallbackMBps float64
}

// defaultDataFallbackMBps is the assumed bandwidth for unmodelled links.
const defaultDataFallbackMBps = 100

// solveTiming is returned to the client alongside the solved arguments so the
// experiment harness can split queue wait from compute time.
type solveTiming struct {
	QueueWaitMS float64
	ComputeMS   float64
}

// SolveReply is the wire reply of a Solve call: the timing and the solved
// profile's INOUT and OUT arguments, Args[LastIn+1:]. The IN arguments do not
// travel back — the client still holds them.
type SolveReply struct {
	Args   []Arg
	Timing solveTiming
}

// EstimateReply answers a monitoring query from the parent agent.
type EstimateReply struct {
	OK  bool // whether this SeD can solve the service
	Est scheduler.Estimate
}

// serviceEntry is one row of the SeD's service table.
type serviceEntry struct {
	desc  *ProfileDesc
	solve SolveFunc
}

// SeD is a Server Daemon: it encapsulates a computational server, keeps the
// list of problems it can solve, answers monitoring queries from its parent
// agent, and executes solve requests in arrival order on a configurable number
// of slots (paper: "each server cannot compute more than one simulation at the
// same time").
type SeD struct {
	cfg    SeDConfig
	server *rpc.Server
	addr   string

	mu        sync.Mutex
	services  map[string]serviceEntry
	dataStore map[string][]byte // persistent data, by DataID

	monitor *cori.Monitor
	// dataNode is this SeD's dataman store, created when cfg.Data is set and
	// served on the SeD's own rpc server so catalog replicas can land here.
	dataNode *dataman.Store

	stop     chan struct{}
	stopOnce sync.Once
	// drainMu serialises Reparent drains: one at a time holds the slots.
	drainMu sync.Mutex

	metrics *sedMetrics // nil unless cfg.Metrics is set

	statMu sync.Mutex
	// Admission state, all under statMu. free counts idle solve slots; a
	// solve that finds one and nobody queued takes it in admit. Otherwise it
	// waits in the FIFO until a finishing solve hands it its slot directly.
	// While a Reparent drains (drainFull non-nil), freed slots go to the
	// drain instead, counted in drained; drainFull closes when it holds
	// every slot.
	free       int
	waiting    grantQueue
	drainFull  chan struct{}
	drained    int
	queued     int
	running    int
	pending    map[string]int // accepted-but-unfinished solves, by service
	lastSolveS float64
	solved     int
	busySecs   float64
	// records is the bounded per-solve forecast ring (predicted vs measured
	// durations).
	records ring[SolveRecord]
	// power and parent start from the config and are mutated by the live
	// migration protocol (Reparent, SetPower).
	power  float64
	parent string
	// parentFailovers counts watchdog re-adoptions (see SeDConfig.ParentProbe).
	parentFailovers int
}

// sedQueueCap bounds the solves one SeD holds queued for a slot; the next
// is refused with "queue full".
const sedQueueCap = 16384

// grantQueue is the SeD's FIFO of queued solves: one grant channel each,
// oldest at items[head], closed when the solve is handed a slot. The backing
// array grows only as far as the queue has been deep; a pop zeroes the slot
// it leaves and a push reclaims the popped prefix before growing.
type grantQueue struct {
	items []chan struct{} // waiting solves are items[head:]
	head  int
}

func (q *grantQueue) len() int { return len(q.items) - q.head }

func (q *grantQueue) push(g chan struct{}) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, g)
}

func (q *grantQueue) pop() chan struct{} {
	g := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return g
}

// remove takes a still-queued grant out of the FIFO, keeping the others in
// order; false means it was already popped (granted).
func (q *grantQueue) remove(g chan struct{}) bool {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] == g {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

// NewSeD creates a SeD; call AddService then Start.
func NewSeD(cfg SeDConfig) (*SeD, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("diet: SeD needs a name")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.PowerGFlops <= 0 {
		cfg.PowerGFlops = 1
	}
	if cfg.Executor == nil {
		cfg.Executor = directExecutor{}
	}
	s := &SeD{
		cfg:       cfg,
		monitor:   cori.NewMonitor(cfg.CoRI),
		server:    rpc.NewServer(),
		services:  make(map[string]serviceEntry),
		dataStore: make(map[string][]byte),
		free:      cfg.Capacity,
		stop:      make(chan struct{}),
		pending:   make(map[string]int),
		power:     cfg.PowerGFlops,
		parent:    cfg.Parent,
		metrics:   newSedMetrics(cfg.Metrics, cfg.Name),
	}
	return s, nil
}

// AddService registers a service in the table (diet_service_table_add).
func (s *SeD) AddService(desc *ProfileDesc, solve SolveFunc) error {
	if desc == nil || solve == nil {
		return fmt.Errorf("diet: AddService needs a descriptor and a solve function")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.services[desc.Service]; dup {
		return fmt.Errorf("diet: service %q already registered", desc.Service)
	}
	s.services[desc.Service] = serviceEntry{desc: desc, solve: solve}
	return nil
}

// ServiceNames lists the registered services (diet_print_service_table).
func (s *SeD) ServiceNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.services))
	for name := range s.services {
		out = append(out, name)
	}
	return out
}

// Name returns the SeD's component name.
func (s *SeD) Name() string { return s.cfg.Name }

// Addr returns the address the SeD serves on (valid after Start).
func (s *SeD) Addr() string { return s.addr }

// objectName is the rpc object identity of this SeD.
func (s *SeD) objectName() string { return "sed:" + s.cfg.Name }

// Start exposes the SeD (in-process or TCP) and registers it with the naming
// service and with its parent agent. It is the moral equivalent of
// diet_SeD(), except it returns instead of blocking.
func (s *SeD) Start() error {
	s.server.RegisterTyped(s.objectName(), s.typedMethods(), s.handler())
	if s.cfg.Data != nil {
		// The SeD is a data node: its store answers on the same server, and
		// the catalog learns the node so fetched replicas can land here.
		s.dataNode = dataman.NewStore(s.cfg.Name)
		s.dataNode.Serve(s.server)
	}
	var err error
	if s.cfg.Local {
		s.addr, err = rpc.ServeLocal("sed-"+s.cfg.Name, s.server)
	} else {
		s.addr, err = s.server.Start(s.cfg.ListenAddr)
	}
	if err != nil {
		return fmt.Errorf("diet: starting SeD %s: %w", s.cfg.Name, err)
	}
	if s.cfg.Data != nil {
		if err := s.cfg.Data.AddNode(s.cfg.Name, s.addr); err != nil {
			return fmt.Errorf("diet: SeD %s joining the data catalog: %w", s.cfg.Name, err)
		}
	}
	nc := &naming.Client{Addr: s.cfg.Naming}
	if err := nc.Register(naming.Entry{Name: s.cfg.Name, Addr: s.addr, Kind: "SeD"}); err != nil {
		return fmt.Errorf("diet: registering SeD %s: %w", s.cfg.Name, err)
	}
	if s.cfg.Parent != "" {
		parent, err := nc.Resolve(s.cfg.Parent)
		if err != nil {
			return fmt.Errorf("diet: SeD %s resolving parent %q: %w", s.cfg.Name, s.cfg.Parent, err)
		}
		var reply ChildRegisterReply
		err = rpc.Call(parent.Addr, "agent:"+s.cfg.Parent, "ChildRegister",
			ChildInfo{Name: s.cfg.Name, Addr: s.addr, Kind: "SeD", Cluster: s.cfg.Cluster}, &reply)
		if err != nil {
			return fmt.Errorf("diet: SeD %s attaching to parent %q: %w", s.cfg.Name, s.cfg.Parent, err)
		}
		if len(reply.Prior) > 0 {
			// The parent knows this cluster: warm-start the monitor from the
			// gossiped cluster models so the first estimates already carry a
			// confident forecast.
			s.WarmStart(reply.Prior)
			publish(s.cfg.Events, "SeD:"+s.cfg.Name, "warm_start", fmt.Sprintf("%d cluster models", len(reply.Prior)))
		}
	}
	if s.cfg.ParentProbe > 0 && s.cfg.Parent != "" {
		go s.parentWatch()
	}
	publish(s.cfg.Events, "SeD:"+s.cfg.Name, "start", s.addr)
	return nil
}

// parentWatch is the orphan watchdog: probe the current parent every
// ParentProbe, and after ParentMaxMissed silent probes re-home under the
// first answering fallback parent (or the original, if it restarted first).
func (s *SeD) parentWatch() {
	maxMissed := s.cfg.ParentMaxMissed
	if maxMissed <= 0 {
		maxMissed = 3
	}
	ticker := time.NewTicker(s.cfg.ParentProbe)
	defer ticker.Stop()
	missed := 0
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.statMu.Lock()
		parent := s.parent
		s.statMu.Unlock()
		if parent == "" {
			continue
		}
		if s.registerWith(parent) == nil {
			missed = 0
			continue
		}
		missed++
		if missed < maxMissed {
			continue
		}
		publish(s.cfg.Events, "SeD:"+s.cfg.Name, "orphaned",
			fmt.Sprintf("parent %s silent for %d probes", parent, missed))
		// Walk the fallbacks (skipping the dead parent); the first answering
		// agent adopts this SeD. On failure keep probing: the original parent
		// may yet restart, and registerWith above heals that edge.
		for _, cand := range s.cfg.FallbackParents {
			if cand == parent || cand == "" {
				continue
			}
			if s.registerWith(cand) != nil {
				continue
			}
			s.statMu.Lock()
			s.parent = cand
			s.parentFailovers++
			s.statMu.Unlock()
			if s.metrics != nil {
				s.metrics.parentFailovers.With(s.cfg.Name).Inc()
			}
			publish(s.cfg.Events, "SeD:"+s.cfg.Name, "adopted", "by "+cand)
			missed = 0
			break
		}
	}
}

// registerWith resolves an agent and (re-)registers this SeD as its child.
// The probe doubles as the registration: an answering agent that lost this
// child (an LA restart, an eviction during a partition) re-adopts it in the
// same call, and the ChildRegister reply is cheap for an agent that already
// holds it.
func (s *SeD) registerWith(agent string) error {
	nc := &naming.Client{Addr: s.cfg.Naming}
	entry, err := nc.Resolve(agent)
	if err != nil {
		return err
	}
	var reply ChildRegisterReply
	return rpc.Call(entry.Addr, "agent:"+agent, "ChildRegister",
		ChildInfo{Name: s.cfg.Name, Addr: s.addr, Kind: "SeD", Cluster: s.cfg.Cluster}, &reply)
}

// ParentFailoverCount reports how many times the orphan watchdog re-homed
// this SeD under a fallback parent.
func (s *SeD) ParentFailoverCount() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.parentFailovers
}

// Close stops serving. Queued solves are refused ("stopped before solving");
// running ones finish. Close is idempotent.
func (s *SeD) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	return s.server.Close()
}

// stopped reports whether Close has been called.
func (s *SeD) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Monitor exposes the SeD's CoRI resource monitor (for tests and tools).
func (s *SeD) Monitor() *cori.Monitor { return s.monitor }

// Models snapshots the monitor's per-service models — the SeD's contribution
// to the agent hierarchy's gossip registry. Models still carrying gossiped-
// prior influence (Warm) are withheld: a SeD only contributes what it has
// measured itself, so borrowed cluster models cannot echo back into the
// registry as independent confirmation.
func (s *SeD) Models() []cori.Model {
	services := s.monitor.Services()
	out := make([]cori.Model, 0, len(services))
	for _, svc := range services {
		if model, ok := s.monitor.Model(svc); ok && !model.Warm {
			out = append(out, model)
		}
	}
	return out
}

// WarmStart seeds the SeD's monitor with gossiped cluster models (see
// cori.Monitor.WarmStart); estimates for the seeded services carry a
// forecast with nonzero confidence before the SeD has solved anything.
func (s *SeD) WarmStart(models []cori.Model) {
	for _, m := range models {
		s.monitor.WarmStart(m)
	}
}

// Estimate builds this SeD's estimation vector for a service, including the
// CoRI forecast extension when the monitor has history for it.
func (s *SeD) Estimate(service string) EstimateReply {
	s.mu.Lock()
	_, ok := s.services[service]
	s.mu.Unlock()
	s.statMu.Lock()
	running, queued, lastSolve := s.running, s.queued, s.lastSolveS
	power := s.power
	pending := make(map[string]int, len(s.pending))
	for svc, n := range s.pending {
		pending[svc] = n
	}
	s.statMu.Unlock()
	est := scheduler.Estimate{
		ServerID:         s.cfg.Name,
		Service:          service,
		Capacity:         s.cfg.Capacity,
		Running:          running,
		QueueLen:         queued,
		PowerGFlops:      power,
		FreeMemMB:        s.cfg.MemMB,
		LastSolveSeconds: lastSolve,
	}
	if model, okM := s.monitor.Model(service); okM {
		// Drain from the queue-wait regression when the model has one (wait
		// measured directly on this server), else priced per pending service
		// — five queued hour-long solves of another service must not be
		// forecast at this service's EWMA.
		model.ApplyToEstimate(&est, s.monitor.DrainEstimate(model, pending, queued+running, s.cfg.Capacity))
	}
	return EstimateReply{OK: ok, Est: est}
}

// EstimateQuery is the data-aware estimate request: the service plus the
// persistent inputs the call references by DataID.
type EstimateQuery struct {
	Service string
	DataIDs []string
}

// EstimateFor builds the estimation vector for a request that carries input
// data references: Estimate plus the predicted seconds to move the non-local
// inputs here from their nearest replicas. A data-local SeD reports 0 and
// wins the ties it used to lose.
func (s *SeD) EstimateFor(q EstimateQuery) EstimateReply {
	reply := s.Estimate(q.Service)
	reply.Est.InputTransferSeconds = s.inputTransferSeconds(q.DataIDs)
	return reply
}

// inputTransferSeconds prices pulling the given inputs to this SeD: for each
// dataset not already local, the cheapest predicted transfer from any
// replica. Unknown datasets (unpublished, or with no recorded size) price as
// free — the catalog cannot say what moving them costs.
func (s *SeD) inputTransferSeconds(dataIDs []string) float64 {
	if s.cfg.Data == nil || len(dataIDs) == 0 {
		return 0
	}
	var total float64
	for _, id := range dataIDs {
		if id == "" {
			continue
		}
		s.mu.Lock()
		_, inLocal := s.dataStore[id]
		s.mu.Unlock()
		if inLocal || s.cfg.Data.HasReplica(id, s.cfg.Name) {
			continue
		}
		nodes, _, err := s.cfg.Data.Locate(id)
		if err != nil || len(nodes) == 0 {
			continue
		}
		sizeMB, ok := s.cfg.Data.SizeMB(id)
		if !ok || sizeMB <= 0 {
			continue
		}
		best := math.MaxFloat64
		for _, n := range nodes {
			if sec := s.predictTransfer(n, sizeMB); sec < best {
				best = sec
			}
		}
		if best < math.MaxFloat64 {
			total += best
		}
	}
	return total
}

// predictTransfer prices moving sizeMB from a node to this SeD: the trusted
// per-pair bandwidth model when one exists, else the fallback bandwidth.
func (s *SeD) predictTransfer(from string, sizeMB float64) float64 {
	if s.cfg.Transfers != nil {
		if sec, conf, ok := s.cfg.Transfers.Predict(from, s.cfg.Name, sizeMB); ok &&
			conf >= scheduler.DefaultMinConfidence {
			return sec
		}
	}
	mbps := s.cfg.DataFallbackMBps
	if mbps <= 0 {
		mbps = defaultDataFallbackMBps
	}
	return sizeMB / mbps
}

// Solve admits the profile to the FIFO, runs the solve function through the
// executor once a slot is granted, records the outcome and returns the filled
// INOUT and OUT arguments (also left in p).
func (s *SeD) Solve(p *Profile) (*SolveReply, error) {
	s.mu.Lock()
	entry, ok := s.services[p.Service]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("diet: SeD %s cannot solve %q", s.cfg.Name, p.Service)
	}
	if err := entry.desc.Matches(p); err != nil {
		return nil, err
	}
	s.resolvePersistent(p)

	enq := time.Now()
	// Snapshot the duration forecast the SeD holds at admission — the view
	// the scheduler's estimate reflected when it routed the request here.
	// The completed solve is judged against this prediction (SolveRecord),
	// which is how MispredictPct accounting works on the live stack.
	predS, predByModel := s.predictSolve(p.Service, p.WorkGFlops)
	depthAtAdmission, err := s.admit(p.Service)
	if err != nil {
		return nil, err
	}
	granted := time.Now()
	if p.RequestID != "" {
		// The FIFO wait: admission to slot grant. Batch reservation wait, if
		// any, appears as reserve spans inside the executor below.
		publishSpan(s.cfg.Events, span(p.RequestID, "SeD:"+s.cfg.Name, logsvc.KindQueue,
			p.Service, fmt.Sprintf("depth %d at admission", depthAtAdmission), enq, granted))
	}
	publish(s.cfg.Events, "SeD:"+s.cfg.Name, "solve_begin", p.Service)

	// Compute time is clocked inside the body, not around the Executor call:
	// a batch executor adds grant delay, batch-queue wait and possibly killed
	// attempts around it, none of which predicts service time (the cori
	// Sample contract is "compute time, excluding queue wait"). The executor
	// serialises body invocations, so on requeue the last run's stamps win.
	var solveStart, solveEnd time.Time
	batchWait, err := s.cfg.Executor.Execute(p.Service, p.WorkGFlops, s.monitor, func() error {
		solveStart = time.Now()
		err := entry.solve(p)
		solveEnd = time.Now()
		return err
	}, s.attemptTrace(p))
	end := time.Now()
	var compute time.Duration
	if err == nil && !solveStart.IsZero() {
		compute = solveEnd.Sub(solveStart)
	}
	s.statMu.Lock()
	if compute > 0 {
		s.lastSolveS = compute.Seconds()
		s.busySecs += compute.Seconds()
	}
	s.solved++
	seq := s.solved
	s.shiftLocked(p.Service, 0, -1)
	s.releaseLocked()
	s.statMu.Unlock()
	publish(s.cfg.Events, "SeD:"+s.cfg.Name, "solve_end", p.Service)

	if err != nil {
		if s.metrics != nil {
			s.metrics.failed.With(s.cfg.Name, p.Service).Inc()
		}
		return nil, fmt.Errorf("diet: solve %s on %s: %w", p.Service, s.cfg.Name, err)
	}
	if p.RequestID != "" && !solveStart.IsZero() {
		publishSpan(s.cfg.Events, span(p.RequestID, "SeD:"+s.cfg.Name, logsvc.KindSolve,
			p.Service, "", solveStart, solveEnd))
	}
	// Feed the CoRI monitor so the next Estimate carries a fitted forecast.
	// Failed solves are excluded: their durations do not predict service time.
	// The observed wait — this SeD's FIFO wait plus the reservation wait the
	// executor reported, clamped positive so it reads as known — trains the
	// wait-on-depth regression behind Model.WaitAtDepth, so Estimate's drain
	// forecast learns real backfill behaviour.
	wait := granted.Sub(enq) + batchWait
	if wait <= 0 {
		wait = time.Microsecond
	}
	if s.metrics != nil {
		s.metrics.completed.With(s.cfg.Name, p.Service).Inc()
		s.metrics.queueWait.With(s.cfg.Name, p.Service).Observe(wait.Seconds())
		s.metrics.solveSeconds.With(s.cfg.Name, p.Service).Observe(compute.Seconds())
	}
	s.monitor.Observe(cori.Sample{
		Service:    p.Service,
		WorkGFlops: p.WorkGFlops,
		Duration:   compute,
		QueueDepth: depthAtAdmission,
		Wait:       wait,
	})
	s.recordSolve(SolveRecord{
		RequestID: p.RequestID, Service: p.Service, WorkGFlops: p.WorkGFlops,
		PredictedS: predS, PredictedByModel: predByModel,
		MeasuredS: compute.Seconds(), WaitS: wait.Seconds(), When: end,
	})
	s.storePersistent(p, seq)
	return &SolveReply{
		Args: p.Args[p.LastIn+1:],
		Timing: solveTiming{
			// Queue wait is everything that was not computing: the SeD FIFO
			// plus any batch reservation wait inside the executor.
			QueueWaitMS: float64((end.Sub(enq) - compute).Microseconds()) / 1000,
			ComputeMS:   float64(compute.Microseconds()) / 1000,
		},
	}, nil
}

// admit gives one solve of the service a slot, returning the depth (queued +
// running) it found on arrival. A free slot with nobody queued is taken on
// the spot; otherwise the solve joins the FIFO and blocks until a finishing
// solve (or the end of a drain) hands it a slot, strictly in arrival order.
// A full queue refuses the solve before it is counted; a SeD that stops under
// a queued solve takes it back out and counts it failed.
func (s *SeD) admit(service string) (int, error) {
	s.statMu.Lock()
	if s.waiting.len() >= sedQueueCap {
		s.statMu.Unlock()
		return 0, fmt.Errorf("diet: SeD %s queue full", s.cfg.Name)
	}
	var depth int
	var grant chan struct{}
	if s.free > 0 && s.waiting.len() == 0 && !s.stopped() {
		s.free--
		depth = s.shiftLocked(service, 0, +1)
	} else {
		depth = s.shiftLocked(service, +1, 0)
		grant = make(chan struct{})
		s.waiting.push(grant)
	}
	s.statMu.Unlock()
	if s.metrics != nil {
		s.metrics.started.With(s.cfg.Name, service).Inc()
	}
	if grant == nil {
		return depth, nil
	}
	select {
	case <-grant:
	case <-s.stop:
		// The SeD died under this queued solve. Failing the call (instead of
		// waiting for a grant that will never come) is what lets the client
		// kill-and-requeue the work on the next ranked server. A solve granted
		// in the same instant is no longer queued: it runs as the last one.
		s.statMu.Lock()
		dropped := s.waiting.remove(grant)
		if dropped {
			s.shiftLocked(service, -1, 0)
		}
		s.statMu.Unlock()
		if dropped {
			if s.metrics != nil {
				s.metrics.failed.With(s.cfg.Name, service).Inc()
			}
			return 0, fmt.Errorf("diet: SeD %s stopped before solving %q", s.cfg.Name, service)
		}
	}
	s.shift(service, -1, +1)
	return depth, nil
}

// releaseLocked returns one slot: to a draining Reparent, else straight to
// the oldest queued solve, else to the free count. A stopped SeD grants
// nothing new. Called with statMu held.
func (s *SeD) releaseLocked() {
	switch {
	case s.drainFull != nil:
		s.drained++
		if s.drained == s.cfg.Capacity {
			close(s.drainFull)
		}
	case s.waiting.len() > 0 && !s.stopped():
		close(s.waiting.pop())
	default:
		s.free++
	}
}

// shift is the only writer of queued, running and pending: a solve takes a
// free slot on arrival (0, +1) or enters the FIFO (+1, 0) and is later granted
// one (-1, +1), or leaves — taken back out of the queue (-1, 0) or done
// running (0, -1). The service's pending count follows the net change and its
// key goes when the count reaches zero, so Estimate and DrainEstimate never
// walk services with nothing outstanding. The queue-depth gauge is set under
// the same lock, so it cannot lag the counters. Returns the depth (queued +
// running) before the move.
func (s *SeD) shift(service string, dQueued, dRunning int) int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.shiftLocked(service, dQueued, dRunning)
}

// shiftLocked is shift for callers already holding statMu.
func (s *SeD) shiftLocked(service string, dQueued, dRunning int) int {
	depth := s.queued + s.running
	s.queued += dQueued
	s.running += dRunning
	if n := s.pending[service] + dQueued + dRunning; n > 0 {
		s.pending[service] = n
	} else {
		delete(s.pending, service)
	}
	if s.metrics != nil {
		s.metrics.queueDepth.With(s.cfg.Name).Set(float64(s.queued + s.running))
	}
	return depth
}

// predictSolve mirrors the simulator's prediction (sedState.predict): the
// CoRI model forecast when the model is trusted, else the advertised-power
// estimate work/power. The bool reports which path produced the prediction.
func (s *SeD) predictSolve(service string, work float64) (float64, bool) {
	if model, ok := s.monitor.Model(service); ok && model.Confidence >= scheduler.DefaultMinConfidence {
		if p := model.SolveSeconds(work); p > 0 {
			return p, true
		}
	}
	s.statMu.Lock()
	power := s.power
	s.statMu.Unlock()
	if power <= 0 {
		power = 1
	}
	return work / power, false
}

// attemptTrace builds the per-attempt callback handed to the executor: every
// reservation attempt becomes a reserve span (submit to start, the
// batch-queue wait) and every walltime kill an overrun_kill span covering
// the compute the kill threw away. Returns nil when nothing would consume
// the trace, so the executor skips the bookkeeping entirely.
func (s *SeD) attemptTrace(p *Profile) func(attempt int, wait time.Duration, killed bool, start, end time.Time) {
	if s.cfg.Events == nil && s.metrics == nil {
		return nil
	}
	return func(attempt int, wait time.Duration, killed bool, start, end time.Time) {
		if s.metrics != nil {
			s.metrics.batchReserveWait.With(s.cfg.Name).Observe(wait.Seconds())
			if killed {
				s.metrics.batchKills.With(s.cfg.Name).Inc()
			}
			if attempt > 1 {
				s.metrics.batchRequeues.With(s.cfg.Name).Inc()
			}
		}
		if p.RequestID == "" {
			return
		}
		started := start.Add(wait)
		if attempt > 1 {
			// A resubmission after a walltime kill: the batch requeue path,
			// marked with the shared recovery span kind.
			publishSpan(s.cfg.Events, span(p.RequestID, "SeD:"+s.cfg.Name, logsvc.KindRequeue,
				p.Service, fmt.Sprintf("attempt %d resubmitted", attempt), start, start))
		}
		publishSpan(s.cfg.Events, span(p.RequestID, "SeD:"+s.cfg.Name, logsvc.KindReserve,
			p.Service, fmt.Sprintf("attempt %d", attempt), start, started))
		if killed {
			publishSpan(s.cfg.Events, span(p.RequestID, "SeD:"+s.cfg.Name, logsvc.KindKill,
				p.Service, fmt.Sprintf("attempt %d killed at walltime", attempt), started, end))
		}
	}
}

// recordSolve appends one completed solve to the bounded forecast ring and
// refreshes the per-service accuracy gauge.
func (s *SeD) recordSolve(rec SolveRecord) {
	s.statMu.Lock()
	s.records.add(rec, sedSolveRecordCap)
	s.statMu.Unlock()
	if s.metrics != nil {
		s.metrics.mispredictPct.With(s.cfg.Name, rec.Service).Observe(rec.MispredictPct())
		if acc, ok := s.ForecastAccuracy()[rec.Service]; ok {
			s.metrics.forecastAbsPct.With(s.cfg.Name, rec.Service).Set(acc.MeanAbsPct)
		}
	}
}

// SolveRecords returns the recent per-solve forecast records, oldest first.
func (s *SeD) SolveRecords() []SolveRecord {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.records.snapshot()
}

// ForecastAccuracy summarises live forecast quality per service over the
// solve-record window — what `dietsed -cori-stats` prints and the
// diet_sed_forecast_mean_abs_pct gauge exposes.
func (s *SeD) ForecastAccuracy() map[string]ForecastAccuracy {
	out := make(map[string]ForecastAccuracy)
	byModel := make(map[string]int)
	for _, r := range s.SolveRecords() {
		acc := out[r.Service]
		acc.Service = r.Service
		acc.Solves++
		acc.MeanAbsPct += r.MispredictPct()
		if r.PredictedByModel {
			byModel[r.Service]++
		}
		out[r.Service] = acc
	}
	for svc, acc := range out {
		acc.MeanAbsPct /= float64(acc.Solves)
		acc.ModelShare = float64(byModel[svc]) / float64(acc.Solves)
		out[svc] = acc
	}
	return out
}

// resolvePersistent fills IN/INOUT arguments that reference server-resident
// data by DataID: from this SeD's own store first, then — when the SeD is
// data-wired — fetched through the platform catalog. The catalog fetch
// measures the transfer (training the bandwidth models) and mints a local
// replica for persistent-data reuse, so a parameter sweep pays the movement
// once. Fetches run outside the service-table lock: they are rpc calls.
func (s *SeD) resolvePersistent(p *Profile) {
	var fetchIdx []int
	s.mu.Lock()
	for i := range p.Args {
		a := &p.Args[i]
		if p.Direction(i) == Out || a.Persist == Volatile {
			continue
		}
		if a.DataID != "" && len(a.Data) == 0 {
			if stored, ok := s.dataStore[a.DataID]; ok {
				a.Data = stored
			} else if s.cfg.Data != nil {
				fetchIdx = append(fetchIdx, i)
			}
		}
	}
	s.mu.Unlock()
	for _, i := range fetchIdx {
		id := p.Args[i].DataID
		it, err := s.cfg.Data.FetchTo(id, s.cfg.Name)
		if err != nil {
			// Leave the argument unresolved; the solve function decides
			// whether it can proceed without the bytes.
			publish(s.cfg.Events, "SeD:"+s.cfg.Name, "data_fetch_failed", id+": "+err.Error())
			continue
		}
		s.mu.Lock()
		p.Args[i].Data = it.Data
		s.dataStore[id] = it.Data
		s.mu.Unlock()
	}
}

// storePersistent keeps persistent/sticky INOUT and OUT data on the server,
// addressable by DataID in later calls. When the SeD is data-wired the datum
// also lands in its node store and is published to the catalog, so later
// requests anywhere on the platform can locate, price and fetch it. seq is
// the solve's number, read under statMu when it completed; it names data the
// client left without an ID.
func (s *SeD) storePersistent(p *Profile, seq int) {
	type produced struct {
		id   string
		mode dataman.Mode
		data []byte
	}
	var out []produced
	s.mu.Lock()
	for i := range p.Args {
		a := &p.Args[i]
		if a.Persist == Volatile || p.Direction(i) == In {
			continue
		}
		if a.DataID == "" {
			a.DataID = fmt.Sprintf("%s/%s/%d/%d", s.cfg.Name, p.Service, seq, i)
		}
		// An INOUT the solve left alone still aliases the request frame: keep
		// a copy, or eight stored bytes pin the frame's megabytes for good.
		data := bytes.Clone(a.Data)
		s.dataStore[a.DataID] = data
		if s.cfg.Data != nil {
			mode := dataman.Persistent
			if a.Persist == Sticky {
				mode = dataman.Sticky
			}
			out = append(out, produced{id: a.DataID, mode: mode, data: data})
		}
	}
	s.mu.Unlock()
	for _, d := range out {
		// Best-effort: a catalog refusal (e.g. the ID was repinned sticky
		// elsewhere) leaves the datum server-resident like before.
		if err := s.dataNode.Put(d.id, d.mode, d.data); err != nil {
			continue
		}
		if err := s.cfg.Data.Publish(d.id, s.cfg.Name, d.mode); err != nil {
			s.dataNode.Delete(d.id)
			publish(s.cfg.Events, "SeD:"+s.cfg.Name, "data_publish_failed", d.id+": "+err.Error())
		}
	}
}

// StoredData returns a copy of a persistent datum (for tests and tools).
func (s *SeD) StoredData(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dataStore[id]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(d))
	copy(out, d)
	return out, true
}

// Stats is a snapshot of SeD activity.
type Stats struct {
	Name      string
	Cluster   string
	Parent    string  // current parent agent (changes under live migration)
	Power     float64 // currently advertised power
	Queued    int
	Running   int
	Solved    int
	BusySecs  float64
	LastSolve float64
}

// Stats returns an activity snapshot.
func (s *SeD) Stats() Stats {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return Stats{
		Name:      s.cfg.Name,
		Cluster:   s.cfg.Cluster,
		Parent:    s.parent,
		Power:     s.power,
		Queued:    s.queued,
		Running:   s.running,
		Solved:    s.solved,
		BusySecs:  s.busySecs,
		LastSolve: s.lastSolveS,
	}
}

// typedMethods are the methods whose reply the server encodes: over tcp the
// solved arguments' data goes out from where the solver (or, for an INOUT
// argument it left alone, the request frame) put it.
func (s *SeD) typedMethods() map[string]rpc.TypedMethod {
	return map[string]rpc.TypedMethod{
		"Solve": func(body []byte) (rpc.WireBody, error) {
			var p Profile
			if err := rpc.Decode(body, &p); err != nil {
				return nil, err
			}
			return s.Solve(&p)
		},
	}
}

// handler exposes the SeD's other methods over rpc.
func (s *SeD) handler() rpc.Handler {
	return rpc.HandlerFunc(map[string]func([]byte) ([]byte, error){
		"Estimate": func(body []byte) ([]byte, error) {
			var q EstimateQuery
			if err := rpc.Decode(body, &q); err != nil {
				return nil, err
			}
			reply := s.EstimateFor(q)
			return rpc.Encode(&reply)
		},
		"Ping": func([]byte) ([]byte, error) {
			return rpc.Encode("pong")
		},
		"Reparent": func(body []byte) ([]byte, error) {
			var req ReparentRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			reply, err := s.Reparent(req)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(reply)
		},
		"SetPower": func(body []byte) ([]byte, error) {
			var p float64
			if err := rpc.Decode(body, &p); err != nil {
				return nil, err
			}
			return rpc.Encode(s.SetPower(p))
		},
		"Stats": func([]byte) ([]byte, error) {
			return rpc.Encode(s.Stats())
		},
		"Services": func([]byte) ([]byte, error) {
			return rpc.Encode(s.ServiceNames())
		},
		"Models": func([]byte) ([]byte, error) {
			return rpc.Encode(ModelsReply{Cluster: s.cfg.Cluster, At: time.Now(), Models: s.Models()})
		},
	})
}
