package simgrid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gateway"
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
}

// The federated submission stream and its costs, exported so a caller
// printing the setup reads the values the runs used.
const (
	// FederationServices is how many distinct services the stream spreads
	// over, and FederationRequests its total submission count.
	FederationServices = 32
	FederationRequests = 4000
	// FederationArrivalRateHz is the open-loop arrival rate, requests per
	// virtual second: between the single-MA and federated capacities, so
	// the single MA saturates while the federation keeps up.
	FederationArrivalRateHz = 100.0
	// FederationSubmitCostMS is one MA's serial processing per finding
	// phase — collect fan-out, ranking, resolve; the ~30 ms ORB overhead of
	// the paper's finding-time measurements.
	FederationSubmitCostMS = 30.0
	// FederationMissCostMS is the cheaper probe a peer pays when a forwarded
	// request finds nothing in its subtree.
	FederationMissCostMS = FederationSubmitCostMS / 3
	// FederationForwardRTTMS is the wire round trip a peer forward adds on
	// top of the home MA's processing.
	FederationForwardRTTMS = 10.0
	// FederationForeignFrac is the fraction of services whose SeDs are
	// registered under a different MA than the gateway's sticky route —
	// deployments that predate the federation layout, the requests that
	// exercise peer forwarding (meaningless with one MA).
	FederationForeignFrac = 0.25
)

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

// RunFederation replays an open-loop submission stream against a federated
// (or single) MA plane and reports per-request records.
func RunFederation(cfg FederationConfig) (*FederationResult, error) {
	if cfg.MAs <= 0 {
		return nil, fmt.Errorf("simgrid: federation needs at least one MA")
	}
	sim := NewSim()
	servers := make([]*maServer, cfg.MAs)
	for i := range servers {
		servers[i] = newMAServer(sim)
	}

	// Service placement: sticky routing (gateway.Route, the live gateway's
	// own function) and SeD homes agree by construction, except every
	// ⌈1/FederationForeignFrac⌉-th service, whose hierarchy is displaced one
	// MA over — those submissions must forward.
	foreignEvery := 0
	if cfg.MAs > 1 {
		foreignEvery = int(math.Round(1 / FederationForeignFrac))
	}
	homeOf := make([]int, FederationServices)
	names := make([]string, FederationServices)
	for s := 0; s < FederationServices; s++ {
		names[s] = fmt.Sprintf("svc%03d", s)
		homeOf[s] = gateway.Route(names[s], cfg.MAs)
		if foreignEvery > 0 && s%foreignEvery == 0 {
			homeOf[s] = (homeOf[s] + 1) % cfg.MAs
		}
	}

	res := &FederationResult{Requests: make([]FederationRequestRecord, FederationRequests)}
	const (
		submitS = FederationSubmitCostMS / 1000
		missS   = FederationMissCostMS / 1000
		rttS    = FederationForwardRTTMS / 1000
	)
	finish := func(req int) { res.Requests[req].DoneS = sim.Now() }
	for i := 0; i < FederationRequests; i++ {
		i := i
		svc := i % FederationServices
		arrive := float64(i) / FederationArrivalRateHz
		route, home := gateway.Route(names[svc], cfg.MAs), homeOf[svc]
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
