// Package gateway is the client-facing front door of a federated DIET
// deployment: it pools connections to the Master Agents, sticky-routes each
// service to one MA (so a service's estimates and models stay warm where its
// hierarchy lives), batches concurrent submissions of the same service into
// one finding phase, and sheds load with a typed ErrOverload once its
// bounded admission queue fills — the web-portal layer of PAPERS.md #5 in
// front of the multi-MA mesh of #1/#2.
//
// The HTTP JSON API it exposes (POST /api/v1/solve, GET /api/v1/status,
// plus /metrics, /statusz and /debug/pprof) speaks the versioned gwproto
// contract; diet.Client's WithGateway option is the in-process client of
// the same wire format.
package gateway

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diet"
	"repro/internal/gwproto"
	"repro/internal/metrics"
)

// ErrOverload re-exports the typed admission-control shed error so gateway
// callers need not import the wire package.
var ErrOverload = gwproto.ErrOverload

// Config configures a Gateway.
type Config struct {
	// Naming is the naming service address shared by the federation.
	Naming string
	// MAs names the Master Agents to pool over (at least one). Sticky
	// routing hashes each service name onto this list, so its order must
	// agree across gateway replicas for stickiness to hold fleet-wide.
	MAs []string
	// QueueCap bounds how many calls may be admitted (queued or running) at
	// once; further calls are shed with ErrOverload (default 256).
	QueueCap int
	// Workers bounds how many admitted calls run concurrently; the rest
	// wait in the admission queue (default 16).
	Workers int
	// TraceLevel is passed through to the pooled diet clients.
	TraceLevel int
	// Events is an optional monitoring sink shared by the pooled clients.
	Events diet.EventSink
	// Metrics is an optional Prometheus registry.
	Metrics *metrics.Registry
}

// finding is one in-flight finding phase that concurrent submissions of the
// same service share: the first caller (the leader) pays the MA round trip,
// later callers join as followers and reuse the ranked reply with rotated
// starting servers.
type finding struct {
	done   chan struct{}
	reply  *diet.SubmitReply
	err    error
	joined int
}

// Gateway is a running gateway instance. All methods are safe for
// concurrent use.
type Gateway struct {
	cfg     Config
	clients []*diet.Client // one pooled session per MA, index-aligned with cfg.MAs

	queue   chan struct{} // admission tokens: queued + running, cap QueueCap
	workers chan struct{} // concurrency tokens, cap Workers

	mu       sync.Mutex
	inflight map[string]*finding

	submitted atomic.Int64
	shed      atomic.Int64
	batched   atomic.Int64
	batches   atomic.Int64
	solved    atomic.Int64
	errors    atomic.Int64
	perMA     []maCounters

	metrics *gwMetrics // nil unless cfg.Metrics is set
}

// maCounters are one MA's slice of the gateway stats.
type maCounters struct {
	submitted atomic.Int64
	failed    atomic.Int64
}

// gwMetrics are the gateway's Prometheus instruments.
type gwMetrics struct {
	admitted    metrics.CounterVec
	shed        metrics.CounterVec
	batched     metrics.CounterVec
	solved      metrics.CounterVec
	errors      metrics.CounterVec
	queueDepth  metrics.GaugeVec
	admissionS  metrics.HistogramVec
	solveS      metrics.HistogramVec
	maSubmitted metrics.CounterVec
}

func newGwMetrics(reg *metrics.Registry) *gwMetrics {
	if reg == nil {
		return nil
	}
	return &gwMetrics{
		admitted: reg.NewCounter("dietgw_admitted_total",
			"calls admitted past the gateway's bounded queue"),
		shed: reg.NewCounter("dietgw_shed_total",
			"calls rejected with ErrOverload because the admission queue was full"),
		batched: reg.NewCounter("dietgw_batched_total",
			"calls that rode another call's finding phase instead of paying their own"),
		solved: reg.NewCounter("dietgw_solved_total",
			"calls completed successfully"),
		errors: reg.NewCounter("dietgw_errors_total",
			"admitted calls that failed"),
		queueDepth: reg.NewGauge("dietgw_queue_depth",
			"calls currently admitted (queued or running)"),
		admissionS: reg.NewHistogram("dietgw_admission_wait_seconds",
			"wait between admission and a worker slot", nil),
		solveS: reg.NewHistogram("dietgw_solve_seconds",
			"end-to-end gateway call time (admission to solved)", nil),
		maSubmitted: reg.NewCounter("dietgw_ma_submissions_total",
			"finding-phase submissions per upstream master agent", "ma"),
	}
}

// New connects a gateway to its Master Agents. Every MA must already be
// registered with naming — a gateway fronts a running federation, it does
// not boot one.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.MAs) == 0 {
		return nil, fmt.Errorf("gateway: needs at least one master agent")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Metrics == nil {
		// The gateway always carries instruments: its /metrics endpoint is
		// part of the API surface, not an opt-in.
		cfg.Metrics = metrics.NewRegistry()
	}
	g := &Gateway{
		cfg:      cfg,
		queue:    make(chan struct{}, cfg.QueueCap),
		workers:  make(chan struct{}, cfg.Workers),
		inflight: make(map[string]*finding),
		perMA:    make([]maCounters, len(cfg.MAs)),
		metrics:  newGwMetrics(cfg.Metrics),
	}
	for _, ma := range cfg.MAs {
		cl, err := diet.InitializeConfig(diet.ClientConfig{
			Naming: cfg.Naming, MAName: ma,
			TraceLevel: cfg.TraceLevel, Events: cfg.Events,
		})
		if err != nil {
			return nil, fmt.Errorf("gateway: connecting to MA %q: %w", ma, err)
		}
		g.clients = append(g.clients, cl)
	}
	return g, nil
}

// Close drops the pooled MA sessions.
func (g *Gateway) Close() {
	for _, cl := range g.clients {
		cl.Finalize()
	}
}

// route sticky-routes a service onto one MA: FNV-1a of the service name
// modulo the pool, so every submission of one service lands on the same MA
// (whose subtree then holds the service's warm models) while distinct
// services spread across the federation.
func (g *Gateway) route(service string) int {
	h := fnv.New32a()
	h.Write([]byte(service))
	return int(h.Sum32()) % len(g.clients)
}

// RouteMA reports which MA a service sticky-routes to (for tests and the
// status page).
func (g *Gateway) RouteMA(service string) string {
	return g.cfg.MAs[g.route(service)]
}

// admit passes the admission controller: a token from the bounded queue or
// an immediate ErrOverload, then a worker slot (this wait is the admission
// latency). The returned release frees both.
func (g *Gateway) admit() (func(), error) {
	select {
	case g.queue <- struct{}{}:
	default:
		g.shed.Add(1)
		if g.metrics != nil {
			g.metrics.shed.With().Inc()
		}
		return nil, fmt.Errorf("gateway: admission queue full (%d): %w", cap(g.queue), ErrOverload)
	}
	g.submitted.Add(1)
	if g.metrics != nil {
		g.metrics.admitted.With().Inc()
		g.metrics.queueDepth.With().Set(float64(len(g.queue)))
	}
	g.workers <- struct{}{}
	return func() {
		<-g.workers
		<-g.queue
		if g.metrics != nil {
			g.metrics.queueDepth.With().Set(float64(len(g.queue)))
		}
	}, nil
}

// findServers runs (or joins) the finding phase for a service. The reply is
// shared with every concurrent caller of the same service; rotate is this
// caller's batch position, used to fan the batch across the ranked list
// instead of piling it onto the top server.
func (g *Gateway) findServers(idx int, service string, work float64) (reply *diet.SubmitReply, rotate int, err error) {
	g.mu.Lock()
	if f, ok := g.inflight[service]; ok {
		f.joined++
		rotate = f.joined
		g.mu.Unlock()
		g.batched.Add(1)
		if g.metrics != nil {
			g.metrics.batched.With().Inc()
		}
		<-f.done
		return f.reply, rotate, f.err
	}
	f := &finding{done: make(chan struct{})}
	g.inflight[service] = f
	g.mu.Unlock()

	g.perMA[idx].submitted.Add(1)
	if g.metrics != nil {
		g.metrics.maSubmitted.With(g.cfg.MAs[idx]).Inc()
	}
	f.reply, _, f.err = g.clients[idx].FindServers(service, work)
	if f.err != nil {
		g.perMA[idx].failed.Add(1)
	}

	g.mu.Lock()
	delete(g.inflight, service)
	if f.joined > 0 {
		g.batches.Add(1)
	}
	g.mu.Unlock()
	close(f.done)
	return f.reply, 0, f.err
}

// Solve runs one complete call through the gateway: admission control,
// sticky-routed (and possibly batched) finding, then the normal diet solve
// with failover, rotated by batch position. The returned admission duration
// is the time spent waiting for a worker slot.
func (g *Gateway) Solve(p *diet.Profile) (*diet.CallInfo, time.Duration, error) {
	t0 := time.Now()
	release, err := g.admit()
	if err != nil {
		return nil, 0, err
	}
	defer release()
	admission := time.Since(t0)
	if g.metrics != nil {
		g.metrics.admissionS.With().Observe(admission.Seconds())
	}

	idx := g.route(p.Service)
	reply, rotate, err := g.findServers(idx, p.Service, p.WorkGFlops)
	if err != nil {
		g.errors.Add(1)
		if g.metrics != nil {
			g.metrics.errors.With().Inc()
		}
		return nil, admission, fmt.Errorf("gateway: finding for %q failed: %w", p.Service, err)
	}
	info, err := g.clients[idx].Call(p, diet.WithWork(p.WorkGFlops), diet.WithServers(reply, rotate))
	if err != nil {
		g.errors.Add(1)
		if g.metrics != nil {
			g.metrics.errors.With().Inc()
		}
		return nil, admission, err
	}
	g.solved.Add(1)
	if g.metrics != nil {
		g.metrics.solved.With().Inc()
		g.metrics.solveS.With().Observe(time.Since(t0).Seconds())
	}
	return info, admission, nil
}

// Status snapshots the gateway counters in the wire schema.
func (g *Gateway) Status() gwproto.StatusReply {
	st := gwproto.StatusReply{
		SchemaVersion: gwproto.Version,
		QueueDepth:    len(g.queue),
		QueueCap:      cap(g.queue),
		Submitted:     g.submitted.Load(),
		Shed:          g.shed.Load(),
		Batched:       g.batched.Load(),
		Batches:       g.batches.Load(),
		Solved:        g.solved.Load(),
		Errors:        g.errors.Load(),
	}
	for i, ma := range g.cfg.MAs {
		st.MAs = append(st.MAs, gwproto.MAStatus{
			Name:      ma,
			Submitted: g.perMA[i].submitted.Load(),
			Failed:    g.perMA[i].failed.Load(),
		})
	}
	return st
}
