package diet

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cori"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// AgentKind distinguishes the single Master Agent from Local Agents.
type AgentKind int

// Agent kinds.
const (
	MasterAgent AgentKind = iota
	LocalAgent
)

// String implements fmt.Stringer.
func (k AgentKind) String() string {
	if k == MasterAgent {
		return "MA"
	}
	return "LA"
}

// ChildInfo describes a component attached below an agent.
type ChildInfo struct {
	Name    string
	Addr    string
	Kind    string // "SeD" or "LA"
	Cluster string // resource class of a SeD, for model gossip ("" = unlabelled)
}

// AgentConfig configures an agent.
type AgentConfig struct {
	Name       string
	Kind       AgentKind
	Parent     string           // parent agent name; empty for the MA
	Naming     string           // naming service address
	Policy     scheduler.Policy // used by the MA to rank estimates
	Local      bool             // serve in-process instead of TCP
	ListenAddr string
	// CollectTimeout bounds the wait for any child's estimate; slow or dead
	// children are skipped, DIET's basic fault tolerance at the agent level.
	CollectTimeout time.Duration
	// CollectMissEvict, when positive, evicts a child after this many
	// consecutive failed collect probes (connection refused, or no answer
	// within CollectTimeout). A dead child then costs at most CollectMissEvict
	// slow collects instead of slowing every submission until the heartbeat
	// monitor notices — and hierarchies running without a heartbeat still shed
	// dead children. Zero disables collect-driven eviction.
	CollectMissEvict int
	// HeartbeatInterval enables the child monitor: every interval the agent
	// pings its children and evicts any that miss MaxMissed consecutive
	// beats — the fault-tolerance mechanism DIET provides at the agent
	// level. Zero disables monitoring.
	HeartbeatInterval time.Duration
	// MaxMissed is the eviction threshold (default 3).
	MaxMissed int
	// ReplanInterval enables live periodic replanning: every interval —
	// measured along the heartbeat sweeps, so HeartbeatInterval must also be
	// set — the agent hands its live topology to Replanner and applies the
	// returned migrations online (ApplyPlan). Zero disables.
	ReplanInterval time.Duration
	// Replanner computes the placement changes a replan wants from the live
	// topology and this agent's gossip registry (handed in so the callback
	// can be built before the agent exists) — typically deploy.LiveReplanner.
	// Nil disables replanning.
	Replanner func(live TopologyNode, reg *cori.Registry) []Migration
	// EvictConfidenceFloor expires gossip-registry contributions whose best
	// model confidence, decayed over EvictHalfLife since the source last
	// reported, falls below the floor; swept at the start of every gossip
	// round. Zero keeps every contribution forever.
	EvictConfidenceFloor float64
	// EvictHalfLife is the decay half-life registry eviction uses
	// (default 1h, the cori default).
	EvictHalfLife time.Duration
	// Peers names the other Master Agents this MA federates with. Each peer
	// is resolved through naming (lazily, retried on heartbeat sweeps) and a
	// Submit whose local collect finds no candidate is forwarded to the
	// federation (bounded by ForwardHops, loop-guarded by request ID), the
	// returned estimates merged into the normal policy ranking. Only valid on
	// a MasterAgent.
	Peers []string
	// ForwardHops bounds how many MAs a forwarded request may traverse,
	// counting the origin's forward as the first hop (default
	// DefaultForwardHops).
	ForwardHops int
	// Events is an optional LogService-style monitoring sink.
	Events EventSink
	// Metrics is an optional Prometheus registry; when set the agent counts
	// requests, gossip rounds, evictions, replans and migrations into it.
	Metrics *metrics.Registry
}

// ServerRef identifies a chosen server back to the client.
type ServerRef struct {
	Name string
	Addr string
}

// SubmitRequest is a client problem submission to the Master Agent.
type SubmitRequest struct {
	Service    string
	WorkGFlops float64
	Seq        int
	// RequestID is the client-minted trace identity of this call; the MA
	// stamps its schedule span with it and fans it down the collect tree.
	RequestID string
	// DataIDs are the persistent inputs the call references by ID without
	// bytes attached — the data the chosen server must fetch. They ride the
	// collect fan-out so each SeD prices its own input transfers into the
	// estimate.
	DataIDs []string
}

// SubmitReply carries the ranked server list back to the client (the paper:
// "a list of available servers is sent back to the client").
type SubmitReply struct {
	Servers   []ServerRef
	Estimates []scheduler.Estimate
}

// CollectRequest asks an agent subtree for estimates. Limit > 0 caps how
// many estimates each sub-agent returns after local ranking — DIET's
// distributed scheduling, which keeps the reply traffic bounded as the
// hierarchy widens (the scalability argument of the paper's §2 against
// centralized agents).
type CollectRequest struct {
	Service string
	Limit   int
	// RequestID carries the trace identity down the hierarchy so every
	// sub-agent's collect span joins the request's trace.
	RequestID string
	// DataIDs carries the request's persistent input references down the
	// tree; data-wired SeDs include the predicted input-transfer time in
	// their estimation vector.
	DataIDs []string
}

// CollectReply is a subtree's answer to a CollectRequest.
type CollectReply struct {
	Estimates []scheduler.Estimate
}

// TopologyNode describes the deployed hierarchy for inspection.
type TopologyNode struct {
	Name     string
	Kind     string
	Addr     string
	Children []TopologyNode
}

// Index flattens the topology into lookup maps: each SeD's current parent
// agent and address, and every agent's address. Both the migration executor
// (Agent.ApplyPlan) and the planner's live diff (deploy.DiffLive) index the
// tree through this one walk, so the two cannot disagree about its shape.
func (n TopologyNode) Index() (parentOf, sedAddr, agentAddr map[string]string) {
	parentOf = make(map[string]string)
	sedAddr = make(map[string]string)
	agentAddr = make(map[string]string)
	var walk func(node TopologyNode)
	walk = func(node TopologyNode) {
		if node.Kind != "SeD" {
			agentAddr[node.Name] = node.Addr
		}
		for _, c := range node.Children {
			if c.Kind == "SeD" {
				parentOf[c.Name] = node.Name
				sedAddr[c.Name] = c.Addr
			}
			walk(c)
		}
	}
	walk(n)
	return parentOf, sedAddr, agentAddr
}

// Agent is a scheduling agent: it maintains the list of children (SeDs or
// further agents), collects computation abilities through the hierarchy, and
// — when it is the Master Agent — ranks them with the plug-in policy.
type Agent struct {
	cfg    AgentConfig
	server *rpc.Server
	addr   string

	mu       sync.RWMutex
	children map[string]ChildInfo
	missed   map[string]int
	// claims tracks, per SeD child, the foreign parent its last mismatched
	// heartbeat probe reported (see SweepChildren): only a *stable* claim
	// accumulates toward the child_moved drop, so stale probes racing a
	// series of reparents cannot evict a child this agent rightfully holds.
	claims map[string]string
	// regSeq is bumped on every childRegister: a sweep observation is only
	// applied if the child was not re-registered while the probe was in
	// flight (the probe's answer would describe a state that no longer
	// holds).
	regSeq map[string]uint64
	// collectMiss counts consecutive failed collect probes per child, the
	// CollectMissEvict bookkeeping. Kept separate from missed so a slow
	// collect cannot spend the heartbeat monitor's eviction grace.
	collectMiss map[string]int

	// registry is the cluster-keyed store of child SeD models, filled by
	// gossip rounds and queried when a fresh SeD registers (warm start).
	registry *cori.Registry

	// peerState is the federation side: known peer MAs, their miss counts,
	// and the forwarded-request loop guard (see federation.go).
	peerState

	stop     chan struct{}
	stopOnce sync.Once

	metrics *agentMetrics // nil unless cfg.Metrics is set
	trace   tracer
}

// NewAgent creates an agent; call Start to expose and attach it.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("diet: agent needs a name")
	}
	if cfg.Kind == MasterAgent && cfg.Parent != "" {
		return nil, fmt.Errorf("diet: master agent %s cannot have a parent", cfg.Name)
	}
	if cfg.Kind == LocalAgent && cfg.Parent == "" {
		return nil, fmt.Errorf("diet: local agent %s needs a parent", cfg.Name)
	}
	if cfg.ReplanInterval > 0 && (cfg.HeartbeatInterval <= 0 || cfg.Replanner == nil) {
		return nil, fmt.Errorf("diet: agent %s: ReplanInterval rides the heartbeat sweeps — set HeartbeatInterval and a Replanner too", cfg.Name)
	}
	if len(cfg.Peers) > 0 && cfg.Kind != MasterAgent {
		return nil, fmt.Errorf("diet: agent %s: only master agents federate (Peers set on a %s)", cfg.Name, cfg.Kind)
	}
	if cfg.Policy == nil {
		cfg.Policy = scheduler.NewRoundRobin()
	}
	if cfg.CollectTimeout <= 0 {
		cfg.CollectTimeout = 10 * time.Second
	}
	if cfg.MaxMissed <= 0 {
		cfg.MaxMissed = 3
	}
	return &Agent{
		cfg:         cfg,
		server:      rpc.NewServer(),
		children:    make(map[string]ChildInfo),
		missed:      make(map[string]int),
		claims:      make(map[string]string),
		regSeq:      make(map[string]uint64),
		collectMiss: make(map[string]int),
		registry:    cori.NewRegistry(),
		peerState:   newPeerState(),
		stop:        make(chan struct{}),
		metrics:     newAgentMetrics(cfg.Metrics, cfg.Name),
		trace:       tracer{sink: cfg.Events, name: cfg.Kind.String() + ":" + cfg.Name},
	}, nil
}

// Name returns the agent's component name.
func (a *Agent) Name() string { return a.cfg.Name }

// Addr returns the agent's serving address (valid after Start).
func (a *Agent) Addr() string { return a.addr }

// objectName is the rpc object identity of this agent.
func (a *Agent) objectName() string { return "agent:" + a.cfg.Name }

// Start exposes the agent, registers it with the naming service, and — for
// Local Agents — attaches it to its parent.
func (a *Agent) Start() error {
	a.server.RegisterMethods(a.objectName(), a.methods())
	var err error
	if a.cfg.Local {
		a.addr, err = rpc.ServeLocal("agent-"+a.cfg.Name, a.server)
	} else {
		a.addr, err = a.server.Start(a.cfg.ListenAddr)
	}
	if err != nil {
		return fmt.Errorf("diet: starting agent %s: %w", a.cfg.Name, err)
	}
	nc := &naming.Client{Addr: a.cfg.Naming}
	kind := "MA"
	if a.cfg.Kind == LocalAgent {
		kind = "LA"
	}
	if err := nc.Register(naming.Entry{Name: a.cfg.Name, Addr: a.addr, Kind: kind}); err != nil {
		return fmt.Errorf("diet: registering agent %s: %w", a.cfg.Name, err)
	}
	if a.cfg.Parent != "" {
		parent, err := nc.Resolve(a.cfg.Parent)
		if err != nil {
			return fmt.Errorf("diet: agent %s resolving parent %q: %w", a.cfg.Name, a.cfg.Parent, err)
		}
		err = rpc.Call(parent.Addr, "agent:"+a.cfg.Parent, "ChildRegister",
			&ChildInfo{Name: a.cfg.Name, Addr: a.addr, Kind: "LA"}, &ChildRegisterReply{})
		if err != nil {
			return fmt.Errorf("diet: agent %s attaching to parent %q: %w", a.cfg.Name, a.cfg.Parent, err)
		}
	}
	if a.cfg.HeartbeatInterval > 0 {
		go a.monitor()
	}
	// Federation is seeded asynchronously: peers that are not up yet simply
	// fail to resolve here and are retried on every heartbeat sweep. Only an
	// MA with configured peers has any to seed.
	if a.cfg.Kind == MasterAgent && len(a.cfg.Peers) > 0 {
		go a.SweepPeers()
	}
	a.trace.event("start", a.addr)
	return nil
}

// Close stops serving and the child monitor.
func (a *Agent) Close() error {
	a.stopOnce.Do(func() { close(a.stop) })
	return a.server.Close()
}

// monitor runs the heartbeat loop until Close.
func (a *Agent) monitor() {
	ticker := time.NewTicker(a.cfg.HeartbeatInterval)
	defer ticker.Stop()
	lastReplan := time.Now()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			a.SweepChildren()
			// The federation heartbeat rides the same sweep: re-announce to
			// peers (their liveness probe) and re-resolve any still missing.
			a.SweepPeers()
			// Gossip rides the heartbeat: the same traffic that proves a
			// child alive also carries its models up the hierarchy.
			a.GossipRound()
			// Replanning rides the same sweep: once the replan interval has
			// elapsed, re-derive the plan from the freshly gossiped registry
			// and migrate children live.
			if a.cfg.ReplanInterval > 0 && a.cfg.Replanner != nil &&
				time.Since(lastReplan) >= a.cfg.ReplanInterval {
				lastReplan = time.Now()
				a.ReplanOnce()
			}
		}
	}
}

// SweepChildren performs one heartbeat round: ping every child and evict
// those that have missed MaxMissed consecutive beats. For SeD children the
// probe is their Stats call, which also reports which parent the SeD answers
// to — a child that migrated away while this agent missed the handoff (a
// MigrateChild reply lost to a dropped connection) is dropped here instead
// of being collected under two parents forever. A parent mismatch gets the
// same MaxMissed grace as a missed beat, and only a *stable* claim counts:
// the mismatch must name the same foreign parent on consecutive probes.
// Both guards exist for probes racing live migration — a reparent in flight
// may legitimately answer with the old parent once, and a series of moves
// may alternate claims; neither may cost this agent a child it rightfully
// holds. Exported so tests (and tools) can drive the monitor
// deterministically.
func (a *Agent) SweepChildren() {
	children := a.Children()
	seqs := make(map[string]uint64, len(children))
	a.mu.RLock()
	for _, c := range children {
		seqs[c.Name] = a.regSeq[c.Name]
	}
	a.mu.RUnlock()
	for _, c := range children {
		var err error
		movedTo := ""
		if c.Kind == "SeD" {
			var st Stats
			err = rpc.Call(c.Addr, "sed:"+c.Name, "Stats", nil, &st)
			if err == nil && st.Parent != "" && st.Parent != a.cfg.Name {
				movedTo = st.Parent
			}
		} else {
			err = rpc.Call(c.Addr, "agent:"+c.Name, "Ping", nil, nil)
		}
		a.mu.Lock()
		if _, held := a.children[c.Name]; !held || a.regSeq[c.Name] != seqs[c.Name] {
			// The child left or re-registered while the probe was in flight:
			// the answer describes a state that no longer holds.
			a.mu.Unlock()
			continue
		}
		switch {
		case movedTo != "":
			if a.claims[c.Name] != movedTo {
				a.claims[c.Name] = movedTo // new claim: restart the grace count
				a.missed[c.Name] = 1
			} else {
				a.missed[c.Name]++
			}
			if a.missed[c.Name] >= a.cfg.MaxMissed {
				delete(a.children, c.Name)
				delete(a.missed, c.Name)
				delete(a.collectMiss, c.Name)
				delete(a.claims, c.Name)
				a.trace.event("child_moved", c.Name, " -> ", movedTo)
			}
		case err != nil:
			delete(a.claims, c.Name)
			a.missed[c.Name]++
			if a.missed[c.Name] >= a.cfg.MaxMissed {
				delete(a.children, c.Name)
				delete(a.missed, c.Name)
				delete(a.collectMiss, c.Name)
				if a.metrics != nil {
					a.metrics.evictions.With(a.cfg.Name).Inc()
				}
				a.trace.event("evict", c.Kind, ":", c.Name)
			}
		default:
			a.missed[c.Name] = 0
			delete(a.claims, c.Name)
		}
		a.mu.Unlock()
	}
}

// childRegister records a child component.
func (a *Agent) childRegister(c ChildInfo) error {
	if c.Name == "" || c.Addr == "" {
		return fmt.Errorf("diet: invalid child registration %+v", c)
	}
	a.mu.Lock()
	prev, held := a.children[c.Name]
	a.children[c.Name] = c
	a.missed[c.Name] = 0 // a re-registering child starts with a clean slate
	a.collectMiss[c.Name] = 0
	delete(a.claims, c.Name)
	a.regSeq[c.Name]++
	a.mu.Unlock()
	// A SeD's parent-probe watchdog re-registers on every probe; only an
	// actual change (a join, a new address) is an event worth tracing.
	if !held || prev.Addr != c.Addr || prev.Kind != c.Kind {
		a.trace.event("child_register", c.Kind, ":", c.Name)
	}
	return nil
}

// Children returns a snapshot of the registered children.
func (a *Agent) Children() []ChildInfo {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]ChildInfo, 0, len(a.children))
	for _, c := range a.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CollectN fans the estimate query out to all children in parallel —
// recursing through sub-agents, querying SeDs — and merges the answers.
// Children that fail or exceed CollectTimeout are skipped. Every agent in the
// subtree locally ranks its merged estimates and returns at most limit of
// them (0: all), so reply traffic stays bounded as the hierarchy widens.
func (a *Agent) CollectN(service string, limit int) []scheduler.Estimate {
	return a.collect(CollectRequest{Service: service, Limit: limit})
}

func (a *Agent) collect(req CollectRequest) []scheduler.Estimate {
	children := a.Children()
	seqs := make(map[string]uint64, len(children))
	if a.cfg.CollectMissEvict > 0 {
		a.mu.RLock()
		for _, c := range children {
			seqs[c.Name] = a.regSeq[c.Name]
		}
		a.mu.RUnlock()
	}
	type result struct {
		name string
		ests []scheduler.Estimate
		ok   bool
	}
	// results holds an answer from every child, so a probe that outlives the
	// deadline below (a hung child accepts and never answers; a refused
	// connection fails fast on its own) still completes its send and exits.
	results := make(chan result, len(children))
	query := EstimateQuery{Service: req.Service, DataIDs: req.DataIDs}
	for _, c := range children {
		go func(c ChildInfo) {
			switch c.Kind {
			case "SeD":
				var reply EstimateReply
				err := rpc.Call(c.Addr, "sed:"+c.Name, "Estimate", &query, &reply)
				if err == nil && reply.OK {
					results <- result{name: c.Name, ests: []scheduler.Estimate{reply.Est}, ok: true}
					return
				}
				// An alive child without the service is a healthy answer.
				results <- result{name: c.Name, ok: err == nil}
			default: // sub-agent
				var reply CollectReply
				err := rpc.Call(c.Addr, "agent:"+c.Name, "Collect", &req, &reply)
				results <- result{name: c.Name, ests: reply.Estimates, ok: err == nil}
			}
		}(c)
	}
	var merged []scheduler.Estimate
	answered := make(map[string]bool, len(children))
	deadline := time.NewTimer(a.cfg.CollectTimeout)
	defer deadline.Stop()
	for range children {
		select {
		case r := <-results:
			answered[r.name] = r.ok
			if r.ok {
				merged = append(merged, r.ests...)
			}
		case <-deadline.C:
			// Children that have not answered are treated as unavailable.
			a.noteCollectMisses(children, answered, seqs)
			return a.truncate(req, merged)
		}
	}
	a.noteCollectMisses(children, answered, seqs)
	return a.truncate(req, merged)
}

// noteCollectMisses applies the CollectMissEvict bookkeeping after a collect:
// children that answered reset their miss streak, children that failed or
// timed out extend it, and a streak reaching the threshold evicts the child —
// guarded by regSeq like the heartbeat sweep, so a child that re-registered
// mid-collect is not judged on a probe of its previous life.
func (a *Agent) noteCollectMisses(children []ChildInfo, answered map[string]bool, seqs map[string]uint64) {
	if a.cfg.CollectMissEvict <= 0 {
		return
	}
	for _, c := range children {
		a.mu.Lock()
		if _, held := a.children[c.Name]; !held || a.regSeq[c.Name] != seqs[c.Name] {
			a.mu.Unlock()
			continue
		}
		if answered[c.Name] {
			a.collectMiss[c.Name] = 0
			a.mu.Unlock()
			continue
		}
		a.collectMiss[c.Name]++
		evict := a.collectMiss[c.Name] >= a.cfg.CollectMissEvict
		if evict {
			delete(a.children, c.Name)
			delete(a.missed, c.Name)
			delete(a.collectMiss, c.Name)
			delete(a.claims, c.Name)
		}
		a.mu.Unlock()
		if evict {
			if a.metrics != nil {
				a.metrics.collectEvictions.With(a.cfg.Name).Inc()
			}
			a.trace.event("collect_evict", c.Kind, ":", c.Name)
		}
	}
}

// truncate applies the distributed-scheduling cap: rank locally and keep the
// best req.Limit entries. With CoRI forecasts the primary key is the
// predicted drain time of each server's accepted work; servers without a
// forecast fall back to queue length scaled by their last observed solve,
// and a loaded server of entirely unknown speed sorts last — under
// truncation the hierarchy prefers predictable servers.
func (a *Agent) truncate(req CollectRequest, ests []scheduler.Estimate) []scheduler.Estimate {
	sortEstimates(ests)
	if req.Limit <= 0 || len(ests) <= req.Limit {
		return ests
	}
	drain := func(e scheduler.Estimate) float64 {
		if d, trusted := e.TrustedDrainSeconds(); trusted {
			return d
		}
		pending := float64(e.QueueLen + e.Running)
		if pending == 0 {
			return 0
		}
		if e.LastSolveSeconds > 0 {
			cap := float64(e.Capacity)
			if cap < 1 {
				cap = 1
			}
			return pending * e.LastSolveSeconds / cap
		}
		return math.Inf(1)
	}
	// Sort an index permutation so each drain key is computed exactly once.
	drains := make([]float64, len(ests))
	order := make([]int, len(ests))
	for i := range ests {
		drains[i] = drain(ests[i])
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if drains[i] != drains[j] {
			return drains[i] < drains[j]
		}
		li := ests[i].QueueLen + ests[i].Running
		lj := ests[j].QueueLen + ests[j].Running
		if li != lj {
			return li < lj
		}
		if ests[i].PowerGFlops != ests[j].PowerGFlops {
			return ests[i].PowerGFlops > ests[j].PowerGFlops
		}
		return ests[i].ServerID < ests[j].ServerID
	})
	kept := make([]scheduler.Estimate, req.Limit)
	for k := 0; k < req.Limit; k++ {
		kept[k] = ests[order[k]]
	}
	ests = kept
	sortEstimates(ests)
	return ests
}

// sortEstimates orders estimates deterministically by server ID.
func sortEstimates(ests []scheduler.Estimate) {
	sort.Slice(ests, func(i, j int) bool { return ests[i].ServerID < ests[j].ServerID })
}

// Submit handles a client request at the Master Agent: collect abilities
// through the hierarchy, rank with the scheduling policy, return the list.
func (a *Agent) Submit(req SubmitRequest) (*SubmitReply, error) {
	if a.cfg.Kind != MasterAgent {
		return nil, fmt.Errorf("diet: agent %s is not a master agent", a.cfg.Name)
	}
	if a.metrics != nil {
		a.metrics.requests.With(a.cfg.Name).Inc()
	}
	a.trace.event("submit", req.Service)
	t0 := time.Now()
	ests := a.collect(CollectRequest{Service: req.Service, RequestID: req.RequestID, DataIDs: req.DataIDs})
	if len(ests) == 0 && len(a.Peers()) > 0 {
		// Local miss: ask the federation. Recording our own view of the
		// request ID first means a forward that loops back here is dropped by
		// the receiving guard, not re-collected.
		a.forwardSeen(req.RequestID)
		ests = a.forwardToPeers(PeerForwardRequest{
			SchemaVersion: PeerSchemaVersion,
			Service:       req.Service,
			WorkGFlops:    req.WorkGFlops,
			Seq:           req.Seq,
			RequestID:     req.RequestID,
			Hops:          a.forwardHops(),
		})
	}
	if len(ests) == 0 {
		return nil, fmt.Errorf("diet: no server can solve %q", req.Service)
	}
	order := a.cfg.Policy.Rank(scheduler.Request{
		Service: req.Service, Seq: req.Seq, WorkGFlops: req.WorkGFlops,
	}, ests)
	reply := &SubmitReply{Estimates: ests}
	ranked := make([]string, len(order))
	for i, idx := range order {
		ranked[i] = ests[idx].ServerID
	}
	// One naming exchange for the whole list; a server that vanished between
	// estimate and resolve is simply missing from the answer.
	entries, err := (&naming.Client{Addr: a.cfg.Naming}).ResolveAll(ranked)
	if err != nil {
		return nil, fmt.Errorf("diet: resolving candidate servers for %q: %w", req.Service, err)
	}
	for _, e := range entries {
		reply.Servers = append(reply.Servers, ServerRef{Name: e.Name, Addr: e.Addr})
	}
	if len(reply.Servers) == 0 {
		return nil, fmt.Errorf("diet: all candidate servers for %q are unresolvable", req.Service)
	}
	done := time.Now()
	if req.RequestID != "" && a.trace.on() {
		a.trace.span(req.RequestID, logsvc.KindSchedule, req.Service, t0, done,
			fmt.Sprintf("%d candidates, chose %s", len(ests), reply.Servers[0].Name))
	}
	if a.metrics != nil {
		a.metrics.scheduleSeconds.With(a.cfg.Name).Observe(done.Sub(t0).Seconds())
	}
	return reply, nil
}

// Topology walks the subtree and reports its structure.
func (a *Agent) Topology() TopologyNode {
	node := TopologyNode{Name: a.cfg.Name, Kind: a.cfg.Kind.String(), Addr: a.addr}
	for _, c := range a.Children() {
		switch c.Kind {
		case "SeD":
			node.Children = append(node.Children, TopologyNode{Name: c.Name, Kind: "SeD", Addr: c.Addr})
		default:
			var sub TopologyNode
			if err := rpc.Call(c.Addr, "agent:"+c.Name, "Topology", nil, &sub); err == nil {
				node.Children = append(node.Children, sub)
			} else {
				node.Children = append(node.Children, TopologyNode{Name: c.Name, Kind: "LA?", Addr: c.Addr})
			}
		}
	}
	return node
}

// methods are the agent's rpc methods.
func (a *Agent) methods() rpc.Methods {
	return rpc.Methods{
		"ChildRegister": rpc.Typed(a.childRegisterCall),
		"GossipRegistry": rpc.Typed(func(snap *cori.RegistrySnapshot) (*cori.RegistrySnapshot, error) {
			// Down-gossip: fold the parent's view in; the reply carries this
			// subtree's view back up.
			if err := a.registry.Merge(*snap); err != nil {
				return nil, err
			}
			back := a.registry.Snapshot()
			return &back, nil
		}),
		"Collect": rpc.Typed(a.collectCall),
		"Submit":  rpc.Typed(func(req *SubmitRequest) (*SubmitReply, error) { return a.Submit(*req) }),
		"MigrateChild": rpc.Typed(func(req *MigrateChildRequest) (rpc.WireBody, error) {
			return nil, a.MigrateChild(*req)
		}),
		"PeerRegister": rpc.Typed(a.peerRegisterCall),
		"PeerForward":  rpc.Typed(a.peerForward),
		"Topology": func([]byte) (rpc.WireBody, error) {
			topo := a.Topology()
			return &topo, nil
		},
		"Ping": func([]byte) (rpc.WireBody, error) { return nil, nil },
	}
}

// childRegisterCall is the ChildRegister method: it adopts the child and
// hands a SeD on a known cluster its cluster's merged models, so that it
// warm-starts instead of running cold.
func (a *Agent) childRegisterCall(c *ChildInfo) (*ChildRegisterReply, error) {
	if err := a.childRegister(*c); err != nil {
		return nil, err
	}
	reply := &ChildRegisterReply{}
	if c.Kind == "SeD" && c.Cluster != "" {
		reply.Prior = a.registry.PriorsFor(c.Cluster)
	}
	return reply, nil
}

// collectCall is the Collect method: a parent fanning a request down. This
// sub-agent's share of the finding phase is its collect span.
func (a *Agent) collectCall(req *CollectRequest) (*CollectReply, error) {
	t0 := time.Now()
	ests := a.collect(*req)
	done := time.Now()
	if req.RequestID != "" && a.trace.on() {
		a.trace.span(req.RequestID, logsvc.KindCollect, req.Service, t0, done,
			fmt.Sprintf("%d estimates", len(ests)))
	}
	if a.metrics != nil {
		a.metrics.collectSeconds.With(a.cfg.Name).Observe(done.Sub(t0).Seconds())
	}
	return &CollectReply{Estimates: ests}, nil
}

// peerRegisterCall is the PeerRegister method: a peer MA announcing itself.
func (a *Agent) peerRegisterCall(req *PeerRegisterRequest) (*PeerRegisterReply, error) {
	if req.SchemaVersion != PeerSchemaVersion {
		return nil, fmt.Errorf("diet: MA %s speaks peer schema v%d, got v%d",
			a.cfg.Name, PeerSchemaVersion, req.SchemaVersion)
	}
	if err := a.peerRegister(req.Peer); err != nil {
		return nil, err
	}
	return &PeerRegisterReply{SchemaVersion: PeerSchemaVersion, OK: true, Name: a.cfg.Name}, nil
}
