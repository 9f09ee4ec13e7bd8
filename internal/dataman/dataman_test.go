package dataman

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// cluster brings up n node stores on the in-process transport plus a catalog
// knowing them all.
func cluster(t *testing.T, n int) (*Catalog, []*Store) {
	t.Helper()
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	cat := NewCatalog()
	var stores []*Store
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("node%d", i)
		st := NewStore(node)
		srv := rpc.NewServer()
		srv.Register(ObjectName, st.Handler())
		addr, err := rpc.ServeLocal("dataman-"+node, srv)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddNode(node, addr); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	return cat, stores
}

func TestStoreBasics(t *testing.T) {
	s := NewStore("n")
	if err := s.Put("", Persistent, nil); err == nil {
		t.Error("empty ID should fail")
	}
	if err := s.Put("a", Persistent, []byte("x")); err != nil {
		t.Fatal(err)
	}
	it, err := s.Get("a")
	if err != nil || string(it.Data) != "x" {
		t.Fatalf("Get = %+v, %v", it, err)
	}
	if _, err := s.Get("ghost"); err == nil {
		t.Error("missing datum should fail")
	}
	s.Delete("a")
	if _, err := s.Get("a"); err == nil {
		t.Error("deleted datum should be gone")
	}
}

func TestPublishLocateFetch(t *testing.T) {
	cat, stores := cluster(t, 3)
	payload := []byte("halo catalog bytes")
	if err := stores[1].Put("halos/1", Persistent, payload); err != nil {
		t.Fatal(err)
	}
	if err := cat.Publish("halos/1", "node1", Persistent); err != nil {
		t.Fatal(err)
	}
	nodes, mode, err := cat.Locate("halos/1")
	if err != nil || len(nodes) != 1 || nodes[0] != "node1" || mode != Persistent {
		t.Fatalf("Locate = %v, %v, %v", nodes, mode, err)
	}
	it, err := cat.Fetch("halos/1")
	if err != nil || !bytes.Equal(it.Data, payload) {
		t.Fatalf("Fetch = %+v, %v", it, err)
	}
	if _, _, err := cat.Locate("ghost"); err == nil {
		t.Error("unpublished datum should not locate")
	}
	if err := cat.Publish("x", "ghostnode", Persistent); err == nil {
		t.Error("publishing on unknown node should fail")
	}
}

func TestReplicatePersistent(t *testing.T) {
	cat, stores := cluster(t, 3)
	stores[0].Put("ic/55", Persistent, []byte("initial conditions"))
	cat.Publish("ic/55", "node0", Persistent)

	if err := cat.Replicate("ic/55", "node2"); err != nil {
		t.Fatal(err)
	}
	if cat.ReplicaCount("ic/55") != 2 {
		t.Errorf("replica count %d, want 2", cat.ReplicaCount("ic/55"))
	}
	// The bytes really moved.
	it, err := stores[2].Get("ic/55")
	if err != nil || string(it.Data) != "initial conditions" {
		t.Fatalf("replica content: %+v, %v", it, err)
	}
	// Idempotent.
	if err := cat.Replicate("ic/55", "node2"); err != nil {
		t.Fatal(err)
	}
	if cat.ReplicaCount("ic/55") != 2 {
		t.Error("re-replication must not duplicate entries")
	}
	if err := cat.Replicate("ic/55", "ghost"); err == nil {
		t.Error("unknown destination should fail")
	}
}

func TestStickyRefusesToMove(t *testing.T) {
	cat, stores := cluster(t, 2)
	stores[0].Put("scratch", Sticky, []byte("pinned"))
	cat.Publish("scratch", "node0", Sticky)
	if err := cat.Replicate("scratch", "node1"); err == nil {
		t.Error("sticky data must refuse replication")
	}
	if cat.ReplicaCount("scratch") != 1 {
		t.Error("sticky replica count must stay 1")
	}
	// Publishing a sticky datum from a second node is identity theft.
	stores[1].Put("scratch", Sticky, []byte("imposter"))
	if err := cat.Publish("scratch", "node1", Sticky); err == nil {
		t.Error("second sticky publisher should be rejected")
	}
}

func TestModeConflictRejected(t *testing.T) {
	cat, stores := cluster(t, 2)
	stores[0].Put("d", Persistent, []byte("x"))
	cat.Publish("d", "node0", Persistent)
	if err := cat.Publish("d", "node1", Sticky); err == nil {
		t.Error("republishing under a different mode should fail")
	}
}

func TestFetchFallsOverDeadReplica(t *testing.T) {
	cat, stores := cluster(t, 3)
	stores[0].Put("r", Persistent, []byte("v"))
	cat.Publish("r", "node0", Persistent)
	if err := cat.Replicate("r", "node1"); err != nil {
		t.Fatal(err)
	}
	// Kill node0's replica content (simulates a lost node store).
	stores[0].Delete("r")
	it, err := cat.Fetch("r")
	if err != nil || string(it.Data) != "v" {
		t.Fatalf("fetch should fall over to node1: %+v, %v", it, err)
	}
}

// TestReplicatePublishFailureDeletesOrphan reproduces the mid-flight race
// Replicate must survive: while the copy is in transit, the datum is
// unpublished everywhere and repinned sticky on another node, so the final
// Publish is refused. The destination store must not keep the orphan bytes.
func TestReplicatePublishFailureDeletesOrphan(t *testing.T) {
	cat, stores := cluster(t, 2)
	if err := stores[0].Put("dat", Persistent, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := cat.Publish("dat", "node0", Persistent); err != nil {
		t.Fatal(err)
	}

	// The destination delegates to a real store, but its Put mutates the
	// catalog before Replicate can publish — the repin landing mid-copy.
	evil := NewStore("evil")
	base := evil.Handler()
	srv := rpc.NewServer()
	srv.Register(ObjectName, func(method string, body []byte) ([]byte, error) {
		out, err := base(method, body)
		if method == "Put" && err == nil {
			if err := cat.Unpublish("dat", "node0"); err != nil {
				t.Error(err)
			}
			if err := cat.Publish("dat", "node1", Sticky); err != nil {
				t.Error(err)
			}
		}
		return out, err
	})
	addr, err := rpc.ServeLocal("dataman-evil", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddNode("evil", addr); err != nil {
		t.Fatal(err)
	}

	err = cat.Replicate("dat", "evil")
	if err == nil || !strings.Contains(err.Error(), "publishing replica") {
		t.Fatalf("Replicate = %v, want publish refusal", err)
	}
	if _, err := evil.Get("dat"); err == nil {
		t.Fatal("orphan replica left on the destination store after the failed publish")
	}
	nodes, mode, err := cat.Locate("dat")
	if err != nil || mode != Sticky || len(nodes) != 1 || nodes[0] != "node1" {
		t.Fatalf("catalog after the race: nodes=%v mode=%v err=%v", nodes, mode, err)
	}
}

// TestReplicateConsistencyUnderRace hammers concurrent Replicate, Unpublish
// and Fetch on one datum; run under -race. The invariant: every replica the
// catalog advertises is actually fetchable from its store.
func TestReplicateConsistencyUnderRace(t *testing.T) {
	cat, stores := cluster(t, 3)
	if err := stores[0].Put("dat", Persistent, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := cat.Publish("dat", "node0", Persistent); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, target := range []string{"node1", "node2"} {
		target := target
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = cat.Replicate("dat", target) // may race an Unpublish; must stay consistent
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			_ = cat.Unpublish("dat", "node1")
			_ = cat.Unpublish("dat", "node2")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if it, err := cat.Fetch("dat"); err == nil && string(it.Data) != "payload" {
				t.Errorf("fetched corrupt replica: %q", it.Data)
			}
		}
	}()
	wg.Wait()

	byName := map[string]*Store{"node0": stores[0], "node1": stores[1], "node2": stores[2]}
	nodes, _, err := cat.Locate("dat")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if it, err := byName[n].Get("dat"); err != nil || string(it.Data) != "payload" {
			t.Fatalf("catalog advertises %s but its store says: %+v, %v", n, it, err)
		}
	}
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
