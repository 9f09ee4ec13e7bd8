// Package dataman is the platform data manager behind DIET's persistence
// modes (the DTM/DAGDA component of the real middleware): persistent and
// sticky data live on the server that produced them, a catalog locates every
// replica by DataID, and volatile-free workflows move references instead of
// bytes. Persistent data may be replicated to other nodes on demand; sticky
// data is pinned to its node and refuses to move — exactly the semantics of
// the paper's DIET_PERSISTENT and DIET_STICKY modes.
package dataman

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/rpc"
)

// ObjectName is the rpc object under which a node's store is exposed.
const ObjectName = "dataman"

// Mode mirrors the transferable persistence classes.
type Mode int

// Data modes.
const (
	// Persistent data stays on its node but may be replicated elsewhere.
	Persistent Mode = iota
	// Sticky data stays on its node and refuses replication.
	Sticky
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Sticky {
		return "sticky"
	}
	return "persistent"
}

// Item is one stored datum. It crosses the wire in a hand-written layout
// (rpc.WireBody: ID text, Mode int, Data bytes), so Get, Put, Replicate and
// FetchTo move Data as a segment of its own instead of through gob: a sender
// must not change Data until the call returns, and the Data of an Item a store
// was handed over tcp aliases the frame it arrived in — as long as the item is
// stored, so is that frame.
type Item struct {
	ID   string
	Mode Mode
	Data []byte
}

var _ rpc.WireBody = (*Item)(nil)

// WireSize implements rpc.WireBody.
func (it *Item) WireSize() int { return 2*rpc.LenSize + len(it.ID) + rpc.IntSize + len(it.Data) }

// AppendWire implements rpc.WireBody.
func (it *Item) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Text(it.ID).Int(int(it.Mode)).Bytes(it.Data)
}

// ReadWire implements rpc.WireBody.
func (it *Item) ReadWire(r *rpc.Reader) {
	it.ID = r.Text()
	it.Mode = Mode(r.Int())
	it.Data = r.Bytes()
}

// Store is one node's local data container.
type Store struct {
	node string
	mu   sync.RWMutex
	data map[string]Item
}

// NewStore creates a node-local store labelled with the node name.
func NewStore(node string) *Store {
	return &Store{node: node, data: make(map[string]Item)}
}

// Node returns the owning node's name.
func (s *Store) Node() string { return s.node }

// Put stores a datum locally.
func (s *Store) Put(id string, mode Mode, data []byte) error {
	if id == "" {
		return fmt.Errorf("dataman: datum needs an ID")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[id] = Item{ID: id, Mode: mode, Data: data}
	return nil
}

// Get returns a local datum.
func (s *Store) Get(id string) (Item, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, ok := s.data[id]
	if !ok {
		return Item{}, fmt.Errorf("dataman: %q not on node %s", id, s.node)
	}
	return it, nil
}

// Delete removes a local datum (diet_free_persistent_data).
func (s *Store) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, id)
}

// IDs lists the locally stored data IDs, sorted.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.data))
	for id := range s.data {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Serve exposes the store on srv under ObjectName. Get answers with the item
// itself, so over tcp its data goes out from the store's memory.
func (s *Store) Serve(srv *rpc.Server) {
	srv.RegisterTyped(ObjectName, map[string]rpc.TypedMethod{
		"Get": func(body []byte) (rpc.WireBody, error) { return s.get(body) },
	}, s.Handler())
}

// get is the Get method: the item named by a gob string.
func (s *Store) get(body []byte) (*Item, error) {
	var id string
	if err := rpc.Decode(body, &id); err != nil {
		return nil, err
	}
	it, err := s.Get(id)
	return &it, err
}

// Handler exposes the store over rpc, every reply encoded here: what Serve
// registers, but for a Get that copies the item's data into its reply.
func (s *Store) Handler() rpc.Handler {
	return rpc.HandlerFunc(map[string]func([]byte) ([]byte, error){
		"Get": func(body []byte) ([]byte, error) {
			it, err := s.get(body)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(it)
		},
		"Put": func(body []byte) ([]byte, error) {
			var it Item
			if err := rpc.Decode(body, &it); err != nil {
				return nil, err
			}
			if err := s.Put(it.ID, it.Mode, it.Data); err != nil {
				return nil, err
			}
			return rpc.Encode(true)
		},
		"Delete": func(body []byte) ([]byte, error) {
			var id string
			if err := rpc.Decode(body, &id); err != nil {
				return nil, err
			}
			s.Delete(id)
			return rpc.Encode(true)
		},
		"IDs": func([]byte) ([]byte, error) {
			return rpc.Encode(s.IDs())
		},
	})
}

// TransferObserver is notified of every measured inter-node data movement
// the catalog performs (Fetch/FetchTo/Replicate). The glue layer feeds these
// samples to a cori.TransferMonitor so the scheduler can forecast transfer
// times; the plain-func shape keeps dataman free of a cori dependency.
type TransferObserver func(from, to string, sizeMB float64, d time.Duration)

// Catalog is the platform-wide replica locator (the "agent side" of the data
// manager): it maps DataID → the nodes holding a replica. It is safe for
// concurrent use.
type Catalog struct {
	mu         sync.RWMutex
	nodes      map[string]string   // node name → store address
	replicas   map[string][]string // data ID → node names, insertion order
	modes      map[string]Mode
	sizes      map[string]float64 // data ID → payload size, MB
	replicaCap int                // FetchTo stops minting replicas at this count (0 = unlimited)
	observers  []TransferObserver
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		nodes:    make(map[string]string),
		replicas: make(map[string][]string),
		modes:    make(map[string]Mode),
		sizes:    make(map[string]float64),
	}
}

// AddTransferObserver registers a callback for measured transfers. Observers
// run synchronously on the fetching goroutine and must be fast.
func (c *Catalog) AddTransferObserver(fn TransferObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observers = append(c.observers, fn)
}

// SetReplicaCap bounds the replicas FetchTo mints on its own (0 = unlimited).
// Explicit Replicate calls are never capped — the operator knows best.
func (c *Catalog) SetReplicaCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replicaCap = n
}

// observeTransfer fans a measured movement out to the observers.
func (c *Catalog) observeTransfer(from, to string, sizeMB float64, d time.Duration) {
	c.mu.RLock()
	obs := append([]TransferObserver(nil), c.observers...)
	c.mu.RUnlock()
	for _, fn := range obs {
		fn(from, to, sizeMB, d)
	}
}

// AddNode registers a node's store address.
func (c *Catalog) AddNode(node, addr string) error {
	if node == "" || addr == "" {
		return fmt.Errorf("dataman: node and addr required")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[node] = addr
	return nil
}

// Publish records that node holds a replica of id with the given mode.
func (c *Catalog) Publish(id, node string, mode Mode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[node]; !ok {
		return fmt.Errorf("dataman: unknown node %q", node)
	}
	if existing, ok := c.modes[id]; ok {
		if existing != mode {
			return fmt.Errorf("dataman: %q already published as %s", id, existing)
		}
		if existing == Sticky {
			for _, n := range c.replicas[id] {
				if n != node {
					return fmt.Errorf("dataman: sticky datum %q is pinned to %s", id, n)
				}
			}
		}
	}
	c.modes[id] = mode
	for _, n := range c.replicas[id] {
		if n == node {
			return nil // already recorded
		}
	}
	c.replicas[id] = append(c.replicas[id], node)
	return nil
}

// Unpublish removes node's replica record of id (the catalog side of
// diet_free_persistent_data). When the last replica goes, the datum's mode is
// forgotten so the ID can be republished afresh.
func (c *Catalog) Unpublish(id, node string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := c.replicas[id]
	for i, n := range nodes {
		if n != node {
			continue
		}
		c.replicas[id] = append(nodes[:i:i], nodes[i+1:]...)
		if len(c.replicas[id]) == 0 {
			delete(c.replicas, id)
			delete(c.modes, id)
			delete(c.sizes, id)
		}
		return nil
	}
	return fmt.Errorf("dataman: %q has no replica on %s", id, node)
}

// Locate returns the nodes holding id, primary first.
func (c *Catalog) Locate(id string) ([]string, Mode, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	nodes, ok := c.replicas[id]
	if !ok || len(nodes) == 0 {
		return nil, Persistent, fmt.Errorf("dataman: %q not published", id)
	}
	return append([]string(nil), nodes...), c.modes[id], nil
}

// Fetch retrieves id from any replica, nearest-first in catalog order. A
// dead store's Get failure falls through to the next replica; only when
// every replica fails does the last error surface.
func (c *Catalog) Fetch(id string) (Item, error) {
	it, _, err := c.fetchAny(id, "")
	return it, err
}

// fetchAny walks id's replicas, preferring preferNode when it holds one, and
// returns the item plus the node that actually served it. This is the single
// retry loop behind Fetch, FetchTo and Replicate.
func (c *Catalog) fetchAny(id, preferNode string) (Item, string, error) {
	nodes, _, err := c.Locate(id)
	if err != nil {
		return Item{}, "", err
	}
	if preferNode != "" {
		for i, n := range nodes {
			if n == preferNode && i > 0 {
				nodes[0], nodes[i] = nodes[i], nodes[0]
				break
			}
		}
	}
	var lastErr error
	for _, node := range nodes {
		c.mu.RLock()
		addr := c.nodes[node]
		c.mu.RUnlock()
		var it Item
		if err := rpc.Call(addr, ObjectName, "Get", id, &it); err != nil {
			lastErr = err
			continue
		}
		return it, node, nil
	}
	return Item{}, "", fmt.Errorf("dataman: all %d replicas of %q failed: %w", len(nodes), id, lastErr)
}

// FetchTo retrieves id for consumption on toNode, measuring the transfer and
// reporting it to the observers. A local replica is served for free. When the
// bytes had to move and the datum is persistent, a replica is published on
// toNode best-effort — capped by SetReplicaCap — so reuse across a parameter
// sweep finds the data already local; this is the on-access half of
// auto-replication (AutoReplicator is the proactive half).
func (c *Catalog) FetchTo(id, toNode string) (Item, error) {
	t0 := time.Now()
	it, from, err := c.fetchAny(id, toNode)
	if err != nil {
		return Item{}, err
	}
	if from == toNode {
		return it, nil // already local, nothing moved
	}
	sizeMB := c.itemSizeMB(id, it)
	c.observeTransfer(from, toNode, sizeMB, time.Since(t0))

	c.mu.RLock()
	dstAddr, known := c.nodes[toNode]
	rcap := c.replicaCap
	count := len(c.replicas[id])
	c.mu.RUnlock()
	if !known || it.Mode == Sticky || (rcap > 0 && count >= rcap) {
		return it, nil
	}
	// Best-effort local replica, with Replicate's orphan cleanup on a
	// publish refusal.
	var accepted bool
	if err := rpc.Call(dstAddr, ObjectName, "Put", &it, &accepted); err != nil {
		return it, nil
	}
	if err := c.Publish(id, toNode, it.Mode); err != nil {
		var deleted bool
		_ = rpc.Call(dstAddr, ObjectName, "Delete", id, &deleted)
	}
	return it, nil
}

// itemSizeMB prefers the recorded payload size, falling back to the fetched
// byte count (and recording it for next time).
func (c *Catalog) itemSizeMB(id string, it Item) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mb, ok := c.sizes[id]; ok && mb > 0 {
		return mb
	}
	mb := float64(len(it.Data)) / (1 << 20)
	if _, published := c.modes[id]; published && mb > 0 {
		c.sizes[id] = mb
	}
	return mb
}

// SetSizeMB records id's payload size for transfer forecasting; virtual
// platforms (the simulator) and out-of-band producers use it when the
// catalog never sees the bytes themselves.
func (c *Catalog) SetSizeMB(id string, mb float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sizes[id] = mb
}

// SizeMB returns id's recorded payload size; ok is false when unknown.
func (c *Catalog) SizeMB(id string) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	mb, ok := c.sizes[id]
	return mb, ok
}

// Put stores data on node's store and publishes the replica in one step —
// the producer-side convenience the SeD solve path uses.
func (c *Catalog) Put(id, node string, mode Mode, data []byte) error {
	c.mu.RLock()
	addr, ok := c.nodes[node]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("dataman: unknown node %q", node)
	}
	var accepted bool
	if err := rpc.Call(addr, ObjectName, "Put", &Item{ID: id, Mode: mode, Data: data}, &accepted); err != nil {
		return fmt.Errorf("dataman: storing %q on %s: %w", id, node, err)
	}
	if err := c.Publish(id, node, mode); err != nil {
		var deleted bool
		_ = rpc.Call(addr, ObjectName, "Delete", id, &deleted)
		return err
	}
	c.SetSizeMB(id, float64(len(data))/(1<<20))
	return nil
}

// Replicate copies a persistent datum onto another node and publishes the
// new replica. Sticky data refuses to move, as the paper's mode demands.
func (c *Catalog) Replicate(id, toNode string) error {
	nodes, mode, err := c.Locate(id)
	if err != nil {
		return err
	}
	if mode == Sticky {
		return fmt.Errorf("dataman: %q is sticky on %s and cannot move", id, nodes[0])
	}
	for _, n := range nodes {
		if n == toNode {
			return nil // already there
		}
	}
	c.mu.RLock()
	dstAddr, ok := c.nodes[toNode]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("dataman: unknown destination node %q", toNode)
	}
	t0 := time.Now()
	it, from, err := c.fetchAny(id, "")
	if err != nil {
		return err
	}
	var accepted bool
	if err := rpc.Call(dstAddr, ObjectName, "Put", &it, &accepted); err != nil {
		return fmt.Errorf("dataman: replicating %q to %s: %w", id, toNode, err)
	}
	c.observeTransfer(from, toNode, c.itemSizeMB(id, it), time.Since(t0))
	if err := c.Publish(id, toNode, mode); err != nil {
		// The bytes landed but the catalog refused the record (the datum was
		// unpublished and repinned while the copy was in flight): delete the
		// orphan so store and catalog stay consistent. Best-effort — an
		// unreachable store keeps unreachable bytes, nothing worse.
		var deleted bool
		_ = rpc.Call(dstAddr, ObjectName, "Delete", id, &deleted)
		return fmt.Errorf("dataman: publishing replica of %q on %s: %w", id, toNode, err)
	}
	return nil
}

// HasReplica reports whether node holds a replica of id.
func (c *Catalog) HasReplica(id, node string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.replicas[id] {
		if n == node {
			return true
		}
	}
	return false
}

// ReplicaCount returns the number of nodes holding id (0 if unpublished).
func (c *Catalog) ReplicaCount(id string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.replicas[id])
}
