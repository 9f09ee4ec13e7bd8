package simgrid

import (
	"fmt"
	"math"
	"sort"
)

// This file mirrors the multi-MA federation in virtual time: the submission
// plane of a federated deployment, where a gateway sticky-routes each
// service onto one Master Agent, MAs answer the finding phase serially (the
// ORB-overhead cost the paper's Figure 6 calls "finding time"), and a
// request for a service whose SeDs live under a different MA is
// peer-forwarded — consuming a miss probe at every peer and a full finding
// at the service's home MA, plus a forward round trip. The federation
// ablation (A12) drives it: saturation throughput and p99 submit latency,
// one MA versus N federated MAs, under the same open-loop arrival stream.

// FederationConfig describes one federated submission-plane run.
type FederationConfig struct {
	// MAs is the federation width (1 = the single-MA baseline).
	MAs int
	// Services is how many distinct services the request stream spreads
	// over (default 32).
	Services int
	// Requests is the total submission count (default 4000).
	Requests int
	// ArrivalRateHz is the open-loop arrival rate of the stream, requests
	// per virtual second (default 100). Pick it between the single-MA and
	// federated capacities to see the single MA saturate while the
	// federation keeps up.
	ArrivalRateHz float64
	// SubmitCostMS is one MA's serial processing per finding phase —
	// collect fan-out, ranking, resolve; the ~30 ms ORB overhead of the
	// paper's finding-time measurements (default 30).
	SubmitCostMS float64
	// MissCostMS is the cheaper probe a peer pays when a forwarded request
	// finds nothing in its subtree (default SubmitCostMS/3).
	MissCostMS float64
	// ForwardRTTMS is the wire round trip a peer forward adds on top of the
	// home MA's processing (default 10).
	ForwardRTTMS float64
	// ForeignFrac is the fraction of services whose SeDs are registered
	// under a different MA than the gateway's sticky route — deployments
	// that predate the federation layout, the requests that exercise peer
	// forwarding (default 0.25; meaningless with one MA).
	ForeignFrac float64
}

func (cfg *FederationConfig) defaults() error {
	if cfg.MAs <= 0 {
		return fmt.Errorf("simgrid: federation needs at least one MA")
	}
	if cfg.Services <= 0 {
		cfg.Services = 32
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 4000
	}
	if cfg.ArrivalRateHz <= 0 {
		cfg.ArrivalRateHz = 100
	}
	if cfg.SubmitCostMS <= 0 {
		cfg.SubmitCostMS = 30
	}
	if cfg.MissCostMS <= 0 {
		cfg.MissCostMS = cfg.SubmitCostMS / 3
	}
	if cfg.ForwardRTTMS <= 0 {
		cfg.ForwardRTTMS = 10
	}
	if cfg.ForeignFrac < 0 || cfg.ForeignFrac > 1 {
		return fmt.Errorf("simgrid: ForeignFrac %g out of [0,1]", cfg.ForeignFrac)
	}
	if cfg.ForeignFrac == 0 {
		cfg.ForeignFrac = 0.25
	}
	return nil
}

// FederationRequestRecord is one submission's life in the federated plane.
type FederationRequestRecord struct {
	Service   string
	ArriveS   float64
	DoneS     float64
	Forwarded bool
}

// LatencyS is the submit latency: arrival at the gateway to ranked reply.
func (r FederationRequestRecord) LatencyS() float64 { return r.DoneS - r.ArriveS }

// FederationResult aggregates one federated run.
type FederationResult struct {
	Config   FederationConfig
	Requests []FederationRequestRecord
	Forwards int
	TotalS   float64 // last reply − first arrival
}

// ThroughputPerSec is the saturation throughput: completed findings per
// virtual second over the span of the run.
func (r *FederationResult) ThroughputPerSec() float64 {
	if r.TotalS <= 0 {
		return 0
	}
	return float64(len(r.Requests)) / r.TotalS
}

// P99LatencyS is the 99th-percentile submit latency.
func (r *FederationResult) P99LatencyS() float64 {
	return r.latencyQuantile(0.99)
}

// MeanLatencyS is the mean submit latency.
func (r *FederationResult) MeanLatencyS() float64 {
	if len(r.Requests) == 0 {
		return 0
	}
	sum := 0.0
	for _, req := range r.Requests {
		sum += req.LatencyS()
	}
	return sum / float64(len(r.Requests))
}

func (r *FederationResult) latencyQuantile(q float64) float64 {
	if len(r.Requests) == 0 {
		return 0
	}
	lat := make([]float64, len(r.Requests))
	for i, req := range r.Requests {
		lat[i] = req.LatencyS()
	}
	sort.Float64s(lat)
	idx := int(math.Ceil(q*float64(len(lat)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}

// maServer is one MA's serial submission processor: a FIFO of work items
// drained one at a time on the virtual clock.
type maServer struct {
	sim   *Sim
	queue fifo[maWork]
	busy  bool
	// One item is in service at a time, so its completion is one handler per
	// server, created once, reading the item from cur.
	cur      maWork
	complete func()
}

// maWork is one queued finding phase or miss probe of request req.
type maWork struct {
	done  func(req int)
	req   int
	costS float64
}

func newMAServer(sim *Sim) *maServer {
	m := &maServer{sim: sim}
	m.complete = func() {
		w := m.cur
		m.cur, m.busy = maWork{}, false
		w.done(w.req)
		m.drain()
	}
	return m
}

func (m *maServer) enqueue(costS float64, req int, done func(req int)) {
	m.queue.push(maWork{done: done, req: req, costS: costS})
	m.drain()
}

func (m *maServer) drain() {
	if m.busy || m.queue.len() == 0 {
		return
	}
	m.busy = true
	m.cur = m.queue.pop()
	_ = m.sim.After(m.cur.costS, m.complete)
}

// routeOf sticky-routes a service name onto an MA index, the same FNV-1a hash
// the live gateway uses (hash/fnv's New32a, written out to allocate nothing).
func routeOf(service string, mas int) int {
	h := uint32(2166136261)
	for i := 0; i < len(service); i++ {
		h ^= uint32(service[i])
		h *= 16777619
	}
	return int(h) % mas
}

// RunFederation replays an open-loop submission stream against a federated
// (or single) MA plane and reports per-request records.
func RunFederation(cfg FederationConfig) (*FederationResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	sim := NewSim()
	servers := make([]*maServer, cfg.MAs)
	for i := range servers {
		servers[i] = newMAServer(sim)
	}

	// Service placement: sticky routing and SeD homes agree by construction
	// (both hash the name), except every ⌈1/ForeignFrac⌉-th service, whose
	// hierarchy is displaced one MA over — those submissions must forward.
	foreignEvery := 0
	if cfg.MAs > 1 && cfg.ForeignFrac > 0 {
		foreignEvery = int(math.Round(1 / cfg.ForeignFrac))
	}
	homeOf := make([]int, cfg.Services)
	names := make([]string, cfg.Services)
	for s := 0; s < cfg.Services; s++ {
		names[s] = fmt.Sprintf("svc%03d", s)
		homeOf[s] = routeOf(names[s], cfg.MAs)
		if foreignEvery > 0 && s%foreignEvery == 0 {
			homeOf[s] = (homeOf[s] + 1) % cfg.MAs
		}
	}

	res := &FederationResult{Config: cfg, Requests: make([]FederationRequestRecord, cfg.Requests)}
	submitS := cfg.SubmitCostMS / 1000
	missS := cfg.MissCostMS / 1000
	rttS := cfg.ForwardRTTMS / 1000
	finish := func(req int) { res.Requests[req].DoneS = sim.Now() }
	for i := 0; i < cfg.Requests; i++ {
		i := i
		svc := i % cfg.Services
		arrive := float64(i) / cfg.ArrivalRateHz
		route, home := routeOf(names[svc], cfg.MAs), homeOf[svc]
		res.Requests[i] = FederationRequestRecord{Service: names[svc], ArriveS: arrive}
		_ = sim.At(arrive, func() {
			if route == home {
				servers[route].enqueue(submitS, i, finish)
				return
			}
			// Local miss at the sticky-routed MA: its collect comes up empty
			// (a miss probe), then the forward broadcast — every other peer
			// pays a miss probe, the home MA a full finding, and the reply
			// crosses the wire back.
			res.Requests[i].Forwarded = true
			res.Forwards++
			servers[route].enqueue(missS, i, func(int) {
				for p := range servers {
					if p == route || p == home {
						continue
					}
					servers[p].enqueue(missS, i, func(int) {})
				}
				_ = sim.After(rttS/2, func() {
					servers[home].enqueue(submitS, i, func(int) {
						_ = sim.After(rttS/2, func() { finish(i) })
					})
				})
			})
		})
	}
	sim.Run()

	first, last := math.Inf(1), 0.0
	for _, r := range res.Requests {
		if r.ArriveS < first {
			first = r.ArriveS
		}
		if r.DoneS > last {
			last = r.DoneS
		}
	}
	res.TotalS = last - first
	return res, nil
}
