package diet

import (
	"time"

	"repro/internal/cori"
	"repro/internal/rpc"
)

// This file carries CoRI model gossip through the agent hierarchy. Every
// agent maintains a cluster-keyed cori.Registry of the models its subtree's
// SeDs have trained. The exchange piggybacks on existing agent traffic: each
// heartbeat sweep also runs a gossip round (SeD children report their models
// up, agent children exchange registry snapshots both ways), and the
// ChildRegister reply hands a fresh SeD the merged prior of its cluster so a
// restarted or newly deployed SeD on a known cluster warm-starts instead of
// falling back to advertised power.

// ModelsReply is a SeD's answer to a Models gossip query: which cluster it
// runs on and its current per-service CoRI models.
type ModelsReply struct {
	Cluster string
	At      time.Time
	Models  []cori.Model
}

// ChildRegisterReply answers a ChildRegister call. Prior carries the merged
// cluster models for a registering SeD's cluster (empty when the registry
// knows nothing about it), so the SeD can warm-start its monitor.
type ChildRegisterReply struct {
	Prior []cori.Model
}

// Registry exposes the agent's cluster-keyed model registry (for tests and
// tools).
func (a *Agent) Registry() *cori.Registry { return a.registry }

// GossipRound performs one gossip exchange with every child: SeD children
// report their per-service models into the registry; agent children receive
// this agent's snapshot and answer with their own, which is merged back —
// one round therefore moves models both up and down one level of the
// hierarchy. The heartbeat monitor runs a round after every sweep, so gossip
// rides the existing keepalive traffic; tests and tools can drive it
// directly. Children that fail are skipped, like a missed heartbeat.
func (a *Agent) GossipRound() {
	if a.metrics != nil {
		a.metrics.gossipRounds.With(a.cfg.Name).Inc()
	}
	// Expire contributions whose confidence has fully decayed before
	// spreading the registry any further: a long-lived agent must not gossip
	// dead SeDs forever. Peers sweeping with the same rule converge to the
	// evicted state even if a merge briefly resurrects a stale source.
	if a.cfg.EvictConfidenceFloor > 0 {
		hl := a.cfg.EvictHalfLife
		if hl <= 0 {
			hl = time.Hour
		}
		for _, src := range a.registry.EvictStale(time.Now(), hl, a.cfg.EvictConfidenceFloor) {
			a.trace.event("registry_evict", src)
		}
	}
	snap := a.registry.Snapshot()
	for _, c := range a.Children() {
		switch c.Kind {
		case "SeD":
			var reply ModelsReply
			if err := rpc.Call(c.Addr, "sed:"+c.Name, "Models", nil, &reply); err != nil {
				continue
			}
			cluster := reply.Cluster
			if cluster == "" {
				cluster = c.Cluster
			}
			a.registry.Update(c.Name, cluster, reply.At, reply.Models)
		default:
			var childSnap cori.RegistrySnapshot
			if err := rpc.Call(c.Addr, "agent:"+c.Name, "GossipRegistry", &snap, &childSnap); err != nil {
				continue
			}
			// A version-mismatched reply is skipped like a failed child; the
			// next round retries.
			_ = a.registry.Merge(childSnap)
		}
	}
}
