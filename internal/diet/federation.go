package diet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/logsvc"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// This file federates Master Agents. Real DIET avoids the single-MA
// bottleneck by running a multi-MA mesh in which each MA owns its own child
// hierarchy and forwards service requests it cannot satisfy to its peers.
// Here each MA keeps its normal child registry and answers Submit locally
// whenever the local collect finds candidates; only a local miss crosses the
// federation, bounded by a hop count and loop-guarded by request ID, and the
// peer estimates merge into the same policy ranking a local answer uses.
//
// The peer wire contract is versioned (PeerSchemaVersion): both RPCs carry an
// explicit SchemaVersion so MAs built at different times can refuse — rather
// than misparse — each other. Bump the constant on any incompatible change.

// PeerSchemaVersion is the wire schema of the PeerRegister and PeerForward
// RPCs. A receiving MA rejects any other version. Version 2: the forwarded
// estimates carry their SeD's address, where the origin's client dials it.
const PeerSchemaVersion = 2

// DefaultForwardHops bounds how many federation hops a request may take when
// AgentConfig.ForwardHops is unset: the origin's forward plus one relay.
const DefaultForwardHops = 2

// forwardSeenCap bounds the loop-guard memory; beyond it, entries older than
// forwardSeenTTL are pruned (and the oldest beyond that, so the map cannot
// grow without bound under a flood of distinct request IDs).
const (
	forwardSeenCap = 4096
	forwardSeenTTL = time.Minute
)

// PeerInfo identifies one federated Master Agent.
type PeerInfo struct {
	Name string
	Addr string
}

// PeerRegisterRequest announces one MA to a peer MA. Re-announcements ride
// the heartbeat sweeps, so receivers must treat them as idempotent.
type PeerRegisterRequest struct {
	SchemaVersion int
	Peer          PeerInfo
}

// PeerRegisterReply acknowledges a peer announcement.
type PeerRegisterReply struct {
	SchemaVersion int
	OK            bool
	// Name lets the announcer confirm who answered (useful when an address
	// was recycled between resolve and register).
	Name string
}

// PeerForwardRequest asks a peer MA for candidate servers its hierarchy can
// offer for a service the origin could not satisfy locally.
type PeerForwardRequest struct {
	SchemaVersion int
	Service       string
	WorkGFlops    float64
	Seq           int
	// RequestID is the client-minted trace identity; the federation's loop
	// guard keys on it, and every peer's collect span joins the trace.
	RequestID string
	// Hops is the remaining forward budget including this delivery: a peer
	// receiving Hops=1 answers from its own subtree only; Hops>1 lets it
	// relay a local miss onward.
	Hops int
	// Visited lists the MAs this request has already consulted (the origin
	// included); relays skip them even when the request ID is absent.
	Visited []string
}

// PeerForwardReply carries a peer subtree's estimates back to the origin.
type PeerForwardReply struct {
	SchemaVersion int
	Estimates     []scheduler.Estimate
	// Dropped reports that the loop guard rejected the request (ID already
	// seen, or this MA was already in Visited) — the origin counts it but
	// treats the reply as empty.
	Dropped bool
}

// Peers returns a snapshot of the MAs this agent currently federates with,
// sorted by name.
func (a *Agent) Peers() []PeerInfo {
	a.peerMu.RLock()
	defer a.peerMu.RUnlock()
	out := make([]PeerInfo, 0, len(a.peers))
	for _, p := range a.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// peerRegister records a peer MA. Peer announcements re-arrive on every
// heartbeat sweep, so — like childRegister for SeD parent probes — only an
// actual change (a new peer, a moved address) publishes an event; the
// steady-state stream stays off the span bus.
func (a *Agent) peerRegister(p PeerInfo) error {
	if a.cfg.Kind != MasterAgent {
		return fmt.Errorf("diet: agent %s is not a master agent; only MAs federate", a.cfg.Name)
	}
	if p.Name == "" || p.Addr == "" {
		return fmt.Errorf("diet: invalid peer registration %+v", p)
	}
	if p.Name == a.cfg.Name {
		return fmt.Errorf("diet: MA %s cannot peer with itself", a.cfg.Name)
	}
	a.peerMu.Lock()
	prev, held := a.peers[p.Name]
	a.peers[p.Name] = p
	a.peerMissed[p.Name] = 0
	a.peerMu.Unlock()
	if !held || prev.Addr != p.Addr {
		a.trace.event("peer_register", p.Name, " @ ", p.Addr)
	}
	return nil
}

// SweepPeers performs one federation heartbeat round: resolve configured
// peers that are not yet connected, and re-announce this MA to every known
// peer. The announcement doubles as the liveness probe — a peer that fails
// MaxMissed consecutive announcements is dropped (and re-resolved on a later
// sweep if it is a configured peer). Exported so tests can drive the
// federation deterministically without a ticker.
func (a *Agent) SweepPeers() {
	if a.cfg.Kind != MasterAgent || len(a.cfg.Peers) == 0 && len(a.Peers()) == 0 {
		return
	}
	nc := &naming.Client{Addr: a.cfg.Naming}
	a.peerMu.RLock()
	known := make(map[string]PeerInfo, len(a.peers))
	for n, p := range a.peers {
		known[n] = p
	}
	a.peerMu.RUnlock()
	// Configured peers that are missing (never resolved, or dropped after
	// misses) are re-resolved through naming.
	for _, name := range a.cfg.Peers {
		if name == a.cfg.Name {
			continue
		}
		if _, ok := known[name]; ok {
			continue
		}
		entry, err := nc.Resolve(name)
		if err != nil {
			continue // not up yet; the next sweep retries
		}
		known[name] = PeerInfo{Name: name, Addr: entry.Addr}
		_ = a.peerRegister(known[name])
	}
	self := PeerInfo{Name: a.cfg.Name, Addr: a.addr}
	for name, p := range known {
		var reply PeerRegisterReply
		err := rpc.Call(p.Addr, "agent:"+name, "PeerRegister",
			&PeerRegisterRequest{SchemaVersion: PeerSchemaVersion, Peer: self}, &reply)
		a.peerMu.Lock()
		if err != nil || !reply.OK {
			a.peerMissed[name]++
			if a.peerMissed[name] >= a.cfg.MaxMissed {
				delete(a.peers, name)
				delete(a.peerMissed, name)
				a.peerMu.Unlock()
				a.trace.event("peer_evict", name)
				continue
			}
		} else {
			a.peerMissed[name] = 0
		}
		a.peerMu.Unlock()
	}
}

// forwardSeen records a request ID in the loop guard and reports whether it
// was already there. An empty ID is never recorded (the Visited list is the
// only guard for untraced requests).
func (a *Agent) forwardSeen(requestID string) bool {
	if requestID == "" {
		return false
	}
	now := time.Now()
	a.seenMu.Lock()
	defer a.seenMu.Unlock()
	if _, dup := a.seenForward[requestID]; dup {
		return true
	}
	if len(a.seenForward) >= forwardSeenCap {
		oldestID, oldestAt := "", now
		for id, at := range a.seenForward {
			if now.Sub(at) > forwardSeenTTL {
				delete(a.seenForward, id)
				continue
			}
			if at.Before(oldestAt) {
				oldestID, oldestAt = id, at
			}
		}
		if len(a.seenForward) >= forwardSeenCap && oldestID != "" {
			delete(a.seenForward, oldestID)
		}
	}
	a.seenForward[requestID] = now
	return false
}

// forwardToPeers fans a locally unsatisfiable request out to every peer not
// yet visited, in parallel, bounded by CollectTimeout per peer, and merges
// their estimates. hops is the remaining budget handed to each peer
// (including its own delivery).
func (a *Agent) forwardToPeers(req PeerForwardRequest) []scheduler.Estimate {
	visited := make(map[string]bool, len(req.Visited)+1)
	for _, v := range req.Visited {
		visited[v] = true
	}
	visited[a.cfg.Name] = true
	var targets []PeerInfo
	for _, p := range a.Peers() {
		if !visited[p.Name] {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 || req.Hops <= 0 {
		return nil
	}
	out := PeerForwardRequest{
		SchemaVersion: PeerSchemaVersion,
		Service:       req.Service,
		WorkGFlops:    req.WorkGFlops,
		Seq:           req.Seq,
		RequestID:     req.RequestID,
		Hops:          req.Hops,
		Visited:       append(append([]string(nil), req.Visited...), a.cfg.Name),
	}
	// As in collect: results is buffered for every target, so a forward that
	// outlives the deadline still completes its send and exits.
	results := make(chan []scheduler.Estimate, len(targets))
	for _, p := range targets {
		go func(p PeerInfo) {
			var reply PeerForwardReply
			err := rpc.Call(p.Addr, "agent:"+p.Name, "PeerForward", &out, &reply)
			if err != nil || reply.Dropped {
				results <- nil
				return
			}
			results <- reply.Estimates
		}(p)
	}
	deadline := time.NewTimer(a.cfg.CollectTimeout)
	defer deadline.Stop()
	var merged []scheduler.Estimate
wait:
	for range targets {
		select {
		case ests := <-results:
			merged = append(merged, ests...)
		case <-deadline.C:
			break wait // peers that have not answered contribute nothing
		}
	}
	if a.metrics != nil {
		a.metrics.peerForwards.With(a.cfg.Name).Inc()
	}
	if a.trace.on() {
		a.trace.event("peer_forward", fmt.Sprintf("%s -> %d peer(s), %d estimates", req.Service, len(targets), len(merged)))
	}
	sortEstimates(merged)
	return merged
}

// peerForward answers a forwarded request from a peer MA: loop-guard, collect
// from the local subtree, and — when the local subtree has nothing and hops
// remain — relay to further peers. The origin's MA merges whatever comes back
// into its normal ranking.
func (a *Agent) peerForward(req *PeerForwardRequest) (*PeerForwardReply, error) {
	reply := &PeerForwardReply{SchemaVersion: PeerSchemaVersion}
	if req.SchemaVersion != PeerSchemaVersion {
		return reply, fmt.Errorf("diet: MA %s speaks peer schema v%d, got v%d",
			a.cfg.Name, PeerSchemaVersion, req.SchemaVersion)
	}
	if a.cfg.Kind != MasterAgent {
		return reply, fmt.Errorf("diet: agent %s is not a master agent", a.cfg.Name)
	}
	dropped := a.forwardSeen(req.RequestID)
	if !dropped {
		for _, v := range req.Visited {
			if v == a.cfg.Name {
				dropped = true
				break
			}
		}
	}
	if dropped || req.Hops <= 0 {
		if a.metrics != nil {
			a.metrics.peerForwardDrops.With(a.cfg.Name).Inc()
		}
		reply.Dropped = true
		return reply, nil
	}
	t0 := time.Now()
	ests, _ := a.collect(CollectRequest{Service: req.Service, RequestID: req.RequestID})
	if len(ests) == 0 && req.Hops > 1 {
		relay := *req
		relay.Hops = req.Hops - 1
		ests = a.forwardToPeers(relay)
	}
	if a.metrics != nil {
		a.metrics.peerServed.With(a.cfg.Name).Inc()
	}
	if req.RequestID != "" && a.trace.on() {
		a.trace.span(req.RequestID, logsvc.KindCollect, req.Service, t0, time.Now(),
			fmt.Sprintf("peer forward: %d estimates", len(ests)))
	}
	reply.Estimates = ests
	return reply, nil
}

// forwardHops resolves the configured forward budget.
func (a *Agent) forwardHops() int {
	if a.cfg.ForwardHops > 0 {
		return a.cfg.ForwardHops
	}
	return DefaultForwardHops
}

// peerState is the Agent-embedded federation state; split into its own struct
// so NewAgent initialises it in one place.
type peerState struct {
	peerMu     sync.RWMutex
	peers      map[string]PeerInfo
	peerMissed map[string]int

	seenMu      sync.Mutex
	seenForward map[string]time.Time
}

func newPeerState() peerState {
	return peerState{
		peers:       make(map[string]PeerInfo),
		peerMissed:  make(map[string]int),
		seenForward: make(map[string]time.Time),
	}
}
