package cori

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// This file is the sharing layer: agents maintain a cluster-keyed registry of
// the models their child SeDs have trained, gossip it up and down the
// hierarchy, and hand a confidence-weighted cluster merge to any fresh SeD
// that registers on a known cluster — the NWS/CoRI view of history as an
// asset keyed by resource class, not by process lifetime.

// SourceModels is one SeD's contribution to a registry: the cluster it runs
// on and its per-service models at the time it reported.
type SourceModels struct {
	Cluster string
	At      time.Time        // when the source reported; newest wins on merge
	Models  map[string]Model // service → model
}

// RegistrySnapshot is the serializable gossip payload: every known source's
// latest contribution, keyed by source (SeD) name. Keeping per-source
// granularity makes gossip idempotent — merging the same snapshot twice, or
// through any number of intermediate agents, converges to last-writer-wins
// per source instead of double-counting.
type RegistrySnapshot struct {
	Version int
	Sources map[string]SourceModels
}

// Registry is the cluster-keyed model store an agent maintains. It is safe
// for concurrent use.
type Registry struct {
	mu      sync.Mutex
	sources map[string]SourceModels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]SourceModels)}
}

// Update records one SeD's current models. Contributions with no cluster
// label are dropped — an unlabelled SeD has no resource class to share
// under — and so are models still carrying gossiped-prior influence (Warm):
// accepting them would let a borrowed cluster model echo back through the
// registry as if a second SeD had measured it independently. Older reports
// than the one already held are ignored.
func (r *Registry) Update(source, cluster string, at time.Time, models []Model) {
	if source == "" || cluster == "" || len(models) == 0 {
		return
	}
	byService := make(map[string]Model, len(models))
	for _, m := range models {
		if m.Service == "" || m.Samples <= 0 || m.Warm {
			continue
		}
		byService[m.Service] = m
	}
	if len(byService) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if held, ok := r.sources[source]; ok && held.At.After(at) {
		return
	}
	r.sources[source] = SourceModels{Cluster: cluster, At: at, Models: byService}
}

// Merge folds a gossiped snapshot in: per source, the newer contribution
// wins. Merging is commutative, associative and idempotent, so agents can
// exchange snapshots in any order and still converge. Snapshots of any
// other schema version are rejected — a mixed-version hierarchy must not
// silently blend incompatible model encodings.
func (r *Registry) Merge(snap RegistrySnapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("cori: registry snapshot schema version %d, this build reads %d", snap.Version, SnapshotVersion)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for source, sm := range snap.Sources {
		if source == "" || sm.Cluster == "" || len(sm.Models) == 0 {
			continue
		}
		if held, ok := r.sources[source]; ok && held.At.After(sm.At) {
			continue
		}
		cp := SourceModels{Cluster: sm.Cluster, At: sm.At, Models: make(map[string]Model, len(sm.Models))}
		for svc, m := range sm.Models {
			cp.Models[svc] = m
		}
		r.sources[source] = cp
	}
	return nil
}

// Snapshot returns a deep copy of the registry for gossiping.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RegistrySnapshot{Version: SnapshotVersion, Sources: make(map[string]SourceModels, len(r.sources))}
	for source, sm := range r.sources {
		cp := SourceModels{Cluster: sm.Cluster, At: sm.At, Models: make(map[string]Model, len(sm.Models))}
		for svc, m := range sm.Models {
			cp.Models[svc] = m
		}
		out.Sources[source] = cp
	}
	return out
}

// SourceModel returns the model one source (SeD) last reported for a
// service. Contributions are per-source, so a live Master Agent can plan
// deployments from exactly what each SeD measured for itself rather than the
// cluster blend — the capability view deploy.RegistrySource adapts.
func (r *Registry) SourceModel(source, service string) (Model, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm, ok := r.sources[source]
	if !ok {
		return Model{}, false
	}
	m, ok := sm.Models[service]
	return m, ok
}

// SourceSnapshot wraps a single source's contribution as a gossipable
// snapshot. The migration protocol uses it to hand a moving SeD's registry
// contribution straight to its new parent, so the receiving subtree knows the
// mover's models before the next full gossip round. ok is false when the
// registry holds nothing for the source.
func (r *Registry) SourceSnapshot(source string) (RegistrySnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sm, ok := r.sources[source]
	if !ok {
		return RegistrySnapshot{}, false
	}
	cp := SourceModels{Cluster: sm.Cluster, At: sm.At, Models: make(map[string]Model, len(sm.Models))}
	for svc, m := range sm.Models {
		cp.Models[svc] = m
	}
	return RegistrySnapshot{Version: SnapshotVersion, Sources: map[string]SourceModels{source: cp}}, true
}

// EvictStale expires contributions whose forecast confidence has fully
// decayed: each source's best model confidence, further decayed over halfLife
// for the time since the source reported, must stay at or above minConfidence
// or the whole contribution is dropped. Long-lived agents call this on every
// gossip round so registries do not accumulate dead SeDs forever.
//
// Eviction targets *stale* contributions, so a source is only considered
// once it has gone at least one halfLife without reporting: a live SeD that
// gossips every round but happens to carry low-confidence models must not be
// evicted and re-added in an endless churn.
//
// Eviction is local and idempotent. A peer that still holds the contribution
// may resurrect it through a later Merge, but as long as every agent sweeps
// with the same rule the next round evicts it again everywhere, so the
// hierarchy still converges — now to the evicted state. Returns the removed
// source names, sorted.
func (r *Registry) EvictStale(now time.Time, halfLife time.Duration, minConfidence float64) []string {
	if halfLife <= 0 || minConfidence <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var removed []string
	for source, sm := range r.sources {
		age := now.Sub(sm.At)
		if age < halfLife {
			continue // recent reporter — never churn a live source
		}
		decay := math.Exp2(-age.Seconds() / halfLife.Seconds())
		best := 0.0
		for _, m := range sm.Models {
			if c := m.Confidence * decay; c > best {
				best = c
			}
		}
		if best < minConfidence {
			removed = append(removed, source)
			delete(r.sources, source)
		}
	}
	sort.Strings(removed)
	return removed
}

// Prior merges every known model for (cluster, service) into the cluster
// prior a fresh SeD should warm-start from; ok is false when no source on
// that cluster has reported the service.
func (r *Registry) Prior(cluster, service string) (Model, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var models []Model
	for _, sm := range r.sources {
		if sm.Cluster != cluster {
			continue
		}
		if m, ok := sm.Models[service]; ok {
			models = append(models, m)
		}
	}
	return MergeModels(models...)
}

// PriorsFor returns the merged cluster prior for every service any source on
// the cluster has reported, sorted by service name.
func (r *Registry) PriorsFor(cluster string) []Model {
	r.mu.Lock()
	services := make(map[string]bool)
	for _, sm := range r.sources {
		if sm.Cluster != cluster {
			continue
		}
		for svc := range sm.Models {
			services[svc] = true
		}
	}
	r.mu.Unlock()
	names := make([]string, 0, len(services))
	for svc := range services {
		names = append(names, svc)
	}
	sort.Strings(names)
	out := make([]Model, 0, len(names))
	for _, svc := range names {
		if m, ok := r.Prior(cluster, svc); ok {
			out = append(out, m)
		}
	}
	return out
}

// MergeModels confidence-weights models of one service (typically from
// sibling SeDs of a cluster) into a single prior. Each model weighs
// Confidence × Samples, so a fully trained fresh model dominates a stale or
// barely trained one; two half-trained models merge to within tolerance of
// one fully trained model. Models with no usable duration signal are
// skipped; ok is false when nothing usable remains.
//
// Inputs arrive off the gossip wire, so the merge defends itself: models
// carrying any non-finite numeric field are dropped (one NaN would poison
// every weighted mean), and confidence is clamped into (0,1] before
// weighing, keeping the merged confidence in [0,1] no matter what a peer
// reported.
func MergeModels(models ...Model) (Model, bool) {
	finite := func(xs ...float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	var usable []Model
	var weights []float64
	var wsum float64
	for _, m := range models {
		if !finite(m.Confidence, m.EWMASeconds, m.BaseSeconds, m.PerGFlopSeconds,
			m.MeanQueueDepth, m.AgeSeconds, m.MeanWorkGFlops, m.MeanWaitSeconds,
			m.WaitBaseSeconds, m.WaitPerDepthSeconds) {
			continue
		}
		if m.Confidence > 1 {
			m.Confidence = 1
		}
		w := m.Confidence * float64(m.Samples)
		if m.Samples <= 0 || m.EWMASeconds <= 0 || w <= 0 {
			continue
		}
		usable = append(usable, m)
		weights = append(weights, w)
		wsum += w
	}
	if len(usable) == 0 {
		return Model{}, false
	}
	out := Model{Service: usable[0].Service}
	// Weighted means over all usable models; quantities only some models
	// carry (regression pairs, optional means) average over the carriers.
	var slopeW, waitW, workW, waitsW float64
	for i, m := range usable {
		w := weights[i]
		if out.Samples > math.MaxInt-m.Samples { // saturate instead of overflowing
			out.Samples = math.MaxInt
		} else {
			out.Samples += m.Samples
		}
		out.EWMASeconds += w * m.EWMASeconds / wsum
		out.Confidence += w * m.Confidence / wsum
		out.MeanQueueDepth += w * m.MeanQueueDepth / wsum
		if m.AgeSeconds > out.AgeSeconds {
			out.AgeSeconds = m.AgeSeconds
		}
		if m.PerGFlopSeconds > 0 {
			slopeW += w
			out.PerGFlopSeconds += w * m.PerGFlopSeconds
			out.BaseSeconds += w * m.BaseSeconds
		}
		if m.WaitPerDepthSeconds > 0 {
			waitW += w
			out.WaitPerDepthSeconds += w * m.WaitPerDepthSeconds
			out.WaitBaseSeconds += w * m.WaitBaseSeconds
		}
		if m.MeanWorkGFlops > 0 {
			workW += w
			out.MeanWorkGFlops += w * m.MeanWorkGFlops
		}
		if m.MeanWaitSeconds > 0 {
			waitsW += w
			out.MeanWaitSeconds += w * m.MeanWaitSeconds
		}
	}
	if slopeW > 0 {
		out.PerGFlopSeconds /= slopeW
		out.BaseSeconds /= slopeW
		out.MeasuredGFlops = 1 / out.PerGFlopSeconds
	}
	if waitW > 0 {
		out.WaitPerDepthSeconds /= waitW
		out.WaitBaseSeconds /= waitW
	}
	if workW > 0 {
		out.MeanWorkGFlops /= workW
	}
	if waitsW > 0 {
		out.MeanWaitSeconds /= waitsW
	}
	if out.Confidence > 1 { // floating-point drift above the clamp
		out.Confidence = 1
	}
	return out, true
}
