package cori

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// This file is the durability layer the long-lived DIET deployments of the
// paper assume: NWS-style forecasters treat history as a durable asset, so a
// Monitor's state — ring contents, online models, installed priors — can be
// serialized to a versioned JSON snapshot, saved atomically, and restored
// into a fresh Monitor after a SeD restart without losing any training.

// SnapshotVersion is the schema version written by Snapshot and required by
// Restore. Bump it whenever the serialized shape changes incompatibly;
// decoding rejects any other version rather than guessing.
const SnapshotVersion = 1

// ServiceSnapshot is the persisted state of one service's history.
type ServiceSnapshot struct {
	Service     string
	Samples     []Sample // ring contents, oldest first
	Count       int      // lifetime samples observed
	EWMASeconds float64
	LastAt      time.Time

	// The installed gossip prior, when any (see Monitor.WarmStart).
	Prior       *Model    `json:",omitempty"`
	PriorWeight float64   `json:",omitempty"`
	PriorAt     time.Time `json:",omitempty"`
}

// Snapshot is a versioned, serializable image of a Monitor's training. The
// Window/Alpha/HalfLifeSeconds fields record the configuration the snapshot
// was taken under, for inspection; Restore keeps the restoring Monitor's own
// configuration and clips rings to its window.
type Snapshot struct {
	Version         int
	SavedAt         time.Time
	Window          int
	Alpha           float64
	HalfLifeSeconds float64
	Services        []ServiceSnapshot
}

// Snapshot captures the Monitor's full state. Everything is deep-copied, so
// the caller may serialize or restore it while the Monitor keeps observing.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		Version:         SnapshotVersion,
		SavedAt:         m.now(),
		Window:          m.cfg.Window,
		Alpha:           alpha,
		HalfLifeSeconds: m.cfg.HalfLife.Seconds(),
	}
	for svc, h := range m.svc {
		ss := ServiceSnapshot{
			Service:     svc,
			Count:       h.count,
			EWMASeconds: h.ewmaSeconds,
			LastAt:      h.lastAt,
			PriorWeight: h.priorWeight,
			PriorAt:     h.priorAt,
		}
		// Unroll the ring into chronological order (oldest first).
		if len(h.ring) > 0 {
			ss.Samples = make([]Sample, 0, len(h.ring))
			start := 0
			if len(h.ring) == m.cfg.Window {
				start = h.next // full ring: the write cursor points at the oldest
			}
			for i := 0; i < len(h.ring); i++ {
				ss.Samples = append(ss.Samples, h.ring[(start+i)%len(h.ring)])
			}
		}
		if h.prior != nil {
			p := *h.prior
			ss.Prior = &p
		}
		out.Services = append(out.Services, ss)
	}
	sortServiceSnapshots(out.Services)
	return out
}

// Restore replaces the Monitor's state with the snapshot's. The Monitor's
// own configuration wins: rings longer than the current window are clipped
// to their newest Window samples. Restore rejects snapshots of any other
// schema version.
func (m *Monitor) Restore(s Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("cori: snapshot schema version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	svc := make(map[string]*history, len(s.Services))
	for _, ss := range s.Services {
		if ss.Service == "" {
			return fmt.Errorf("cori: snapshot holds a service entry with no name")
		}
		if _, dup := svc[ss.Service]; dup {
			return fmt.Errorf("cori: snapshot holds duplicate entries for service %q", ss.Service)
		}
		samples := ss.Samples
		if len(samples) > m.cfg.Window {
			samples = samples[len(samples)-m.cfg.Window:] // keep the newest
		}
		h := &history{
			ring:        make([]Sample, len(samples), m.cfg.Window),
			next:        len(samples) % m.cfg.Window,
			count:       ss.Count,
			ewmaSeconds: ss.EWMASeconds,
			lastAt:      ss.LastAt,
			priorWeight: ss.PriorWeight,
			priorAt:     ss.PriorAt,
		}
		copy(h.ring, samples)
		if h.count < len(h.ring) {
			h.count = len(h.ring)
		}
		if ss.Prior != nil {
			p := *ss.Prior
			h.prior = &p
		}
		svc[ss.Service] = h
	}
	m.svc = svc
	return nil
}

// Encode serializes the snapshot as indented JSON.
func (s Snapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSnapshot parses a serialized snapshot, rejecting corrupt input and
// any schema version this build does not read.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("cori: corrupt snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return Snapshot{}, fmt.Errorf("cori: snapshot schema version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	return s, nil
}

// SaveFile atomically writes the Monitor's snapshot to path: the JSON lands
// in a temp file in the same directory first and is renamed over the target,
// so a crash mid-save never corrupts the previous snapshot.
func (m *Monitor) SaveFile(path string) error {
	data, err := m.Snapshot().Encode()
	if err != nil {
		return fmt.Errorf("cori: encoding snapshot: %w", err)
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("cori: saving snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cori: saving snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cori: saving snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cori: saving snapshot: %w", err)
	}
	return nil
}

// LoadFile restores the Monitor from a snapshot file written by SaveFile.
func (m *Monitor) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cori: loading snapshot: %w", err)
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	return m.Restore(s)
}

// sortServiceSnapshots orders entries by service name so snapshots are
// byte-stable for identical state.
func sortServiceSnapshots(ss []ServiceSnapshot) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Service < ss[j].Service })
}
