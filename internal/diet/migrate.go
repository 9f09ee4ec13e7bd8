package diet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cori"
	"repro/internal/naming"
	"repro/internal/rpc"
)

// This file is the live-migration protocol: the online counterpart of
// re-deploying from a deploy.Replan. A long-lived Master Agent periodically
// re-derives the measured-power plan (AgentConfig.Replanner), diffs it
// against the live topology, and applies the changes without restarting
// anything — each moving SeD drains its in-flight solves, re-registers under
// its new parent carrying its cluster label, and keeps its CoRI monitor (the
// model history lives in the SeD process, so a move never retrains), while
// the old parent forwards the mover's gossip-registry contribution to the
// new parent so the receiving subtree trusts the mover's forecasts
// immediately.

// Migration is one live placement change, the executable form of a
// deploy.Change: move a SeD under a new parent agent and/or refresh the
// effective power it advertises to the schedulers.
type Migration struct {
	SeD       string
	NewParent string  // target agent; may equal the current parent
	NewPower  float64 // >0: advertise this effective power after the move; 0 keeps it
}

// MigrationResult reports one executed (or failed) migration.
type MigrationResult struct {
	Migration
	OldParent string
	Err       string // empty on success
	// PowerChanged reports that a power-only refresh actually moved the
	// SeD's advertised power (false when the pass was a no-op at the fixed
	// point).
	PowerChanged bool
}

// Moved reports whether the migration changed the SeD's parent (as opposed
// to a power-only refresh).
func (r MigrationResult) Moved() bool { return r.Err == "" && r.OldParent != r.NewParent }

// ReparentRequest asks a SeD to re-register under a new parent agent.
type ReparentRequest struct {
	Parent     string // new parent agent name
	ParentAddr string
	NewPower   float64 // >0: re-advertise this power after the move
}

// MigrateChildRequest asks an agent to hand one of its SeD children to a new
// parent (Agent.MigrateChild).
type MigrateChildRequest struct {
	Child         string
	NewParent     string
	NewParentAddr string
	NewPower      float64
}

// reparentDrainTimeout bounds how long a Reparent waits for in-flight solves
// to finish before giving up (the solve keeps its slot for its full
// duration, so a long-running computation can legitimately stall a move).
var reparentDrainTimeout = 30 * time.Second

// reparentRegisterTimeout bounds the ChildRegister call to the new parent —
// issued while the SeD holds every solve slot, so it must never hang on an
// unresponsive peer.
var reparentRegisterTimeout = 10 * time.Second

// Reparent drains the SeD and re-registers it under a new parent agent: the
// SeD comes to hold every capacity slot — the free ones at once, each busy one
// as its solve finishes — so no solve is mid-execution and none queued can be
// granted while the parent switches. It registers with the new parent
// (carrying its cluster label, exactly like a fresh join), then hands the
// slots back, to the queued solves first in arrival order. Queued and newly
// arriving solves keep accumulating during the drain and are granted
// unchanged afterwards: no solve is lost, dropped or re-run by a move. The
// CoRI monitor is untouched — it lives in this process, so the model history
// travels with the SeD by construction.
func (s *SeD) Reparent(req ReparentRequest) error {
	if req.Parent == "" || req.ParentAddr == "" {
		return fmt.Errorf("diet: SeD %s: reparent needs a parent name and address", s.cfg.Name)
	}
	// While the drain runs, a finishing solve hands its slot to the drain,
	// not to the next queued solve that would stretch the drain past its
	// timeout on a busy SeD.
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	full := make(chan struct{})
	s.statMu.Lock()
	s.drainFull, s.drained, s.free = full, s.free, 0
	if s.drained == s.cfg.Capacity {
		close(full)
	}
	s.statMu.Unlock()
	defer s.endDrain()
	select {
	case <-full:
	case <-s.stop:
		return fmt.Errorf("diet: SeD %s closed during reparent", s.cfg.Name)
	case <-time.After(reparentDrainTimeout):
		return fmt.Errorf("diet: SeD %s: reparent timed out draining in-flight solves", s.cfg.Name)
	}

	// Commit to the new parent *before* registering there: the SeD's Stats
	// answer is what heartbeat sweeps trust, and once the new parent lists
	// this SeD it must never hear it claim the old one — a sweep acting on
	// that transient would drop a freshly registered child. Claiming first
	// is safe the other way round: until the registration lands, only the
	// old parent lists the SeD, and if its sweep acts on the new claim it
	// merely completes the handoff early.
	s.statMu.Lock()
	old := s.parent
	s.parent = req.Parent
	s.statMu.Unlock()
	rollback := func() {
		s.statMu.Lock()
		s.parent = old
		s.statMu.Unlock()
		// The old parent may have acted on the transient claim and dropped
		// this SeD; re-registering there is idempotent, so make sure it
		// still lists us (best effort — a failure here is healed like any
		// lost handoff, by heartbeats).
		if old != "" {
			nc := &naming.Client{Addr: s.cfg.Naming}
			if entry, err := nc.Resolve(old); err == nil {
				_ = rpc.Call(entry.Addr, "agent:"+old, "ChildRegister", s.childInfo(), &ChildRegisterReply{})
			}
		}
	}

	// The re-registration RPC is bounded: the SeD is holding every solve
	// slot here, and rpc.Call has only a dial timeout — a new parent that
	// accepts the connection but never replies must not wedge the SeD
	// forever. On timeout the registration may still land at the parent
	// later; that parent's heartbeat sweep then sees a child answering to
	// someone else and drops it (the lost-handoff healing).
	regErr := make(chan error, 1)
	go func() {
		regErr <- rpc.Call(req.ParentAddr, "agent:"+req.Parent, "ChildRegister", s.childInfo(), &ChildRegisterReply{})
	}()
	select {
	case err := <-regErr:
		if err != nil {
			rollback()
			return fmt.Errorf("diet: SeD %s re-registering under %q: %w", s.cfg.Name, req.Parent, err)
		}
	case <-time.After(reparentRegisterTimeout):
		rollback()
		return fmt.Errorf("diet: SeD %s: re-registration under %q timed out", s.cfg.Name, req.Parent)
	case <-s.stop:
		return fmt.Errorf("diet: SeD %s closed during reparent", s.cfg.Name)
	}
	// Unlike a fresh join, the cluster prior in the ChildRegister reply is
	// deliberately ignored: this SeD carries its own trained monitor across
	// the move, and blending a borrowed prior in would dilute measured
	// history.
	if req.NewPower > 0 {
		s.SetPower(req.NewPower)
	}
	s.trace.event("reparent", old, " -> ", req.Parent)
	return nil
}

// endDrain ends a Reparent's drain and hands back the slots it holds, to the
// queued solves first in arrival order. Slots still out with running solves
// come back through the normal release once those finish.
func (s *SeD) endDrain() {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	held := s.drained
	s.drainFull, s.drained = nil, 0
	for ; held > 0; held-- {
		s.releaseLocked()
	}
}

// SetPower re-advertises the SeD's effective processing power — the
// power-only half of a live replan, applied without draining. Non-positive
// and non-finite values are ignored: this is an RPC surface, and a NaN
// would silently corrupt every scheduler ranking built on it. It reports
// whether the advertised power actually moved (beyond a relative epsilon),
// so a steady-state replan pass can tell a real refresh from a no-op.
func (s *SeD) SetPower(p float64) bool {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return false
	}
	s.statMu.Lock()
	defer s.statMu.Unlock()
	if math.Abs(p-s.power) <= 1e-9*math.Max(1, s.power) {
		return false
	}
	s.power = p
	return true
}

// MigrateChild executes one migration step at the child's current parent:
// ask the SeD to reparent, drop it from this agent's child table once it has
// re-registered, and forward its gossip-registry contribution to the new
// parent so the mover's models are trusted there before the next gossip
// round. Between the re-registration and the local removal both parents
// briefly list the child; a Collect in that window may see its estimate
// twice, which is harmless — the client still dispatches exactly one solve.
func (a *Agent) MigrateChild(req MigrateChildRequest) error {
	a.mu.RLock()
	c, ok := a.children[req.Child]
	a.mu.RUnlock()
	if !ok {
		return fmt.Errorf("diet: agent %s has no child %q", a.cfg.Name, req.Child)
	}
	if c.Kind != "SeD" {
		return fmt.Errorf("diet: agent %s: child %q is a %s; only SeDs migrate", a.cfg.Name, req.Child, c.Kind)
	}
	if req.NewParent == a.cfg.Name {
		// Already here: a reparent-to-self would re-register the child and
		// then drop it below. Treat it as the power-only refresh it is.
		if req.NewPower > 0 {
			p := rpc.Float(req.NewPower)
			if err := rpc.Call(c.Addr, "sed:"+c.Name, "SetPower", &p, nil); err != nil {
				return fmt.Errorf("diet: refreshing %s power: %w", req.Child, err)
			}
		}
		return nil
	}
	err := rpc.Call(c.Addr, "sed:"+c.Name, "Reparent",
		&ReparentRequest{Parent: req.NewParent, ParentAddr: req.NewParentAddr, NewPower: req.NewPower}, nil)
	if err != nil {
		return fmt.Errorf("diet: migrating %s to %s: %w", req.Child, req.NewParent, err)
	}
	a.mu.Lock()
	delete(a.children, req.Child)
	delete(a.missed, req.Child)
	delete(a.claims, req.Child)
	a.mu.Unlock()
	// Forward the mover's registry contribution. The reply snapshot is merged
	// back, like any down-gossip exchange; a failure here only delays the new
	// parent's knowledge until its next gossip round.
	if contrib, ok := a.registry.SourceSnapshot(req.Child); ok {
		var back cori.RegistrySnapshot
		if err := rpc.Call(req.NewParentAddr, "agent:"+req.NewParent, "GossipRegistry", &contrib, &back); err == nil {
			_ = a.registry.Merge(back)
		}
	}
	a.trace.event("migrate_out", req.Child, " -> ", req.NewParent)
	return nil
}

// ApplyPlan executes a set of migrations against the live hierarchy rooted
// at this agent: for each one it locates the SeD's current parent in the
// topology, then either forwards a MigrateChild to that parent (placement
// changed) or pushes the power refresh straight to the SeD (placement
// already right). Failures are per-migration — one unreachable SeD never
// blocks the rest of the plan.
func (a *Agent) ApplyPlan(migs []Migration) []MigrationResult {
	if len(migs) == 0 {
		return nil
	}
	return a.applyPlanOn(a.Topology(), migs)
}

// applyPlanOn is ApplyPlan against an already-collected topology snapshot,
// so ReplanOnce resolves migrations against the same view it planned from
// (and pays the recursive Topology RPC fan-out once, not twice).
func (a *Agent) applyPlanOn(topo TopologyNode, migs []Migration) []MigrationResult {
	if len(migs) == 0 {
		return nil
	}
	parentOf, sedAddr, agentAddr := topo.Index()
	out := make([]MigrationResult, 0, len(migs))
	for _, m := range migs {
		r := MigrationResult{Migration: m, OldParent: parentOf[m.SeD]}
		cur, known := parentOf[m.SeD]
		switch {
		case !known:
			r.Err = fmt.Sprintf("no SeD %q in the live hierarchy", m.SeD)
		case m.NewParent == "":
			r.Err = "migration has no target parent"
		case agentAddr[m.NewParent] == "":
			r.Err = fmt.Sprintf("no agent %q in the live hierarchy", m.NewParent)
		case cur == m.NewParent:
			// Placement already right: refresh the advertised power without a
			// drain (a no-op migration when NewPower is 0 too).
			if m.NewPower > 0 {
				p, changed := rpc.Float(m.NewPower), rpc.Bool(false)
				if err := rpc.Call(sedAddr[m.SeD], "sed:"+m.SeD, "SetPower", &p, &changed); err != nil {
					r.Err = fmt.Sprintf("refreshing %s power: %v", m.SeD, err)
				}
				r.PowerChanged = bool(changed)
			}
		default:
			req := MigrateChildRequest{
				Child: m.SeD, NewParent: m.NewParent,
				NewParentAddr: agentAddr[m.NewParent], NewPower: m.NewPower,
			}
			if err := rpc.Call(agentAddr[cur], "agent:"+cur, "MigrateChild", &req, nil); err != nil {
				r.Err = fmt.Sprintf("migrating %s from %s: %v", m.SeD, cur, err)
			}
		}
		out = append(out, r)
	}
	return out
}

// ReplanOnce runs one live replanning pass: hand the current topology to the
// configured Replanner and apply whatever migrations it returns. The
// heartbeat monitor calls this every ReplanInterval; tests and tools drive
// it directly for determinism. Nil Replanner → no-op.
func (a *Agent) ReplanOnce() []MigrationResult {
	if a.cfg.Replanner == nil {
		return nil
	}
	topo := a.Topology()
	res := a.applyPlanOn(topo, a.cfg.Replanner(topo, a.registry))
	moved, refreshed := 0, 0
	for _, r := range res {
		if r.Moved() {
			moved++
		}
		if r.PowerChanged {
			refreshed++
		}
	}
	if a.metrics != nil {
		a.metrics.replans.With(a.cfg.Name).Inc()
		a.metrics.migrations.With(a.cfg.Name).Add(float64(moved))
	}
	// A pass that changed nothing (the fixed point) stays silent.
	if (moved > 0 || refreshed > 0) && a.trace.on() {
		a.trace.event("replan", fmt.Sprintf("%d move(s), %d power refresh(es)", moved, refreshed))
	}
	return res
}
