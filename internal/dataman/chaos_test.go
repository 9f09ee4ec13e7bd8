package dataman

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// deadNode registers a node whose store answers every call with an error —
// a crashed machine that is still in the catalog's node table.
func deadNode(t *testing.T, cat *Catalog, node string) {
	t.Helper()
	srv := rpc.NewServer()
	srv.Register(ObjectName, func(method string, body []byte) ([]byte, error) {
		return nil, fmt.Errorf("node %s is dead", node)
	})
	addr, err := rpc.ServeLocal("dataman-"+node, srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddNode(node, addr); err != nil {
		t.Fatal(err)
	}
}

// TestDatamanFetchRetriesPastDeadStore pins the Fetch retry contract the
// scheduler now leans on: with two replicas and the first store dead (its
// Get errors, not merely missing bytes), both Fetch and FetchTo must fall
// over to the live replica instead of surfacing the first error.
func TestDatamanFetchRetriesPastDeadStore(t *testing.T) {
	cat, stores := cluster(t, 2)
	deadNode(t, cat, "corpse")

	// Publish on the dead node first so it is the preferred replica, then a
	// live copy on node1.
	if err := cat.Publish("snap", "corpse", Persistent); err != nil {
		t.Fatal(err)
	}
	if err := stores[1].Put("snap", Persistent, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if err := cat.Publish("snap", "node1", Persistent); err != nil {
		t.Fatal(err)
	}

	it, err := cat.Fetch("snap")
	if err != nil || string(it.Data) != "bytes" {
		t.Fatalf("Fetch must retry the next replica: %+v, %v", it, err)
	}
	it, err = cat.FetchTo("snap", "node0")
	if err != nil || string(it.Data) != "bytes" {
		t.Fatalf("FetchTo must retry the next replica: %+v, %v", it, err)
	}
	// With every live replica unpublished (FetchTo minted one on node0),
	// only the dead node remains and the last error finally surfaces.
	if err := cat.Unpublish("snap", "node1"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Unpublish("snap", "node0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Fetch("snap"); err == nil {
		t.Fatal("all-dead fetch must fail")
	}
}

// TestDatamanNodeDeathMidReplicate kills the destination node mid-Replicate:
// the copy must fail cleanly, leaving no orphan replica record and a
// ReplicaCount consistent with Locate.
func TestDatamanNodeDeathMidReplicate(t *testing.T) {
	cat, stores := cluster(t, 1)
	deadNode(t, cat, "corpse")
	if err := stores[0].Put("dat", Persistent, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := cat.Publish("dat", "node0", Persistent); err != nil {
		t.Fatal(err)
	}

	if err := cat.Replicate("dat", "corpse"); err == nil {
		t.Fatal("replicating onto a dead node must fail")
	}
	nodes, _, err := cat.Locate("dat")
	if err != nil || len(nodes) != 1 || nodes[0] != "node0" {
		t.Fatalf("dead destination must leave the catalog untouched, got %v, %v", nodes, err)
	}
	if got := cat.ReplicaCount("dat"); got != len(nodes) {
		t.Fatalf("ReplicaCount %d inconsistent with Locate %v", got, nodes)
	}
}

// TestDatamanChaosConcurrentOps hammers one catalog with concurrent Publish,
// Replicate, Unpublish, Fetch and FetchTo — including replication toward a
// node that dies mid-run — under -race. Invariants at the end: every
// advertised replica is fetchable from its store, and ReplicaCount agrees
// with Locate for every datum.
func TestDatamanChaosConcurrentOps(t *testing.T) {
	const iters = 25
	cat, stores := cluster(t, 4)
	deadNode(t, cat, "corpse")
	byName := map[string]*Store{}
	for i, st := range stores {
		byName[fmt.Sprintf("node%d", i)] = st
	}

	ids := []string{"ic/a", "ic/b", "ic/c"}
	for i, id := range ids {
		node := fmt.Sprintf("node%d", i)
		if err := byName[node].Put(id, Persistent, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := cat.Publish(id, node, Persistent); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	for _, id := range ids {
		id := id
		run(func(i int) { _ = cat.Replicate(id, fmt.Sprintf("node%d", i%4)) })
		run(func(i int) { _ = cat.Replicate(id, "corpse") })
		run(func(i int) {
			_ = cat.Unpublish(id, fmt.Sprintf("node%d", 3-i%3))
		})
		run(func(i int) {
			if it, err := cat.Fetch(id); err == nil && string(it.Data) != "payload" {
				t.Errorf("%s: fetched corrupt replica %q", id, it.Data)
			}
		})
		run(func(i int) {
			if it, err := cat.FetchTo(id, fmt.Sprintf("node%d", i%4)); err == nil && string(it.Data) != "payload" {
				t.Errorf("%s: FetchTo returned corrupt replica %q", id, it.Data)
			}
		})
		run(func(i int) {
			// Re-publish from a store that actually holds the bytes, racing
			// the unpublisher.
			node := fmt.Sprintf("node%d", i%4)
			if _, err := byName[node].Get(id); err == nil {
				_ = cat.Publish(id, node, Persistent)
			}
		})
	}
	wg.Wait()

	for _, id := range ids {
		nodes, _, err := cat.Locate(id)
		if err != nil {
			continue // fully unpublished by the chaos; fine
		}
		if got := cat.ReplicaCount(id); got != len(nodes) {
			t.Errorf("%s: ReplicaCount %d inconsistent with Locate %v", id, got, nodes)
		}
		for _, n := range nodes {
			if n == "corpse" {
				t.Errorf("%s: dead node advertised as a replica", id)
				continue
			}
			if it, err := byName[n].Get(id); err != nil || string(it.Data) != "payload" {
				t.Errorf("%s: catalog advertises %s but its store says: %+v, %v", id, n, it, err)
			}
		}
	}
}

// TestDatamanFetchToMintsCappedReplicas checks FetchTo's on-access
// replication: the consumer node gains a replica for persistent-data reuse,
// the replica cap stops further minting, sticky data never moves, and the
// observers see the measured transfer.
func TestDatamanFetchToMintsCappedReplicas(t *testing.T) {
	cat, stores := cluster(t, 4)
	cat.SetReplicaCap(2)
	var mu sync.Mutex
	type move struct {
		from, to string
		mb       float64
	}
	var moves []move
	cat.AddTransferObserver(func(from, to string, sizeMB float64, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if d <= 0 {
			t.Errorf("observed non-positive transfer duration %v", d)
		}
		moves = append(moves, move{from, to, sizeMB})
	})

	payload := make([]byte, 1<<20) // 1 MB
	if err := cat.Put("grafic/ic", "node0", Persistent, payload); err != nil {
		t.Fatal(err)
	}

	// First remote consumer: bytes move, a replica is minted.
	if _, err := cat.FetchTo("grafic/ic", "node1"); err != nil {
		t.Fatal(err)
	}
	if !cat.HasReplica("grafic/ic", "node1") {
		t.Fatal("FetchTo must publish the consumer-side replica")
	}
	// Size bookkeeping rides along for the forecasters.
	if mb, ok := cat.SizeMB("grafic/ic"); !ok || mb <= 0 {
		t.Fatalf("SizeMB = %v, %v; want recorded positive size", mb, ok)
	}
	if _, err := stores[1].Get("grafic/ic"); err != nil {
		t.Fatal("replica bytes must land on the consumer store")
	}
	// Local re-read: free, no transfer observed.
	before := len(moves)
	if _, err := cat.FetchTo("grafic/ic", "node1"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(moves) != before {
		t.Errorf("local FetchTo must not observe a transfer, got %v", moves[before:])
	}
	mu.Unlock()
	// Third consumer: cap of 2 already reached — bytes move but no replica.
	if _, err := cat.FetchTo("grafic/ic", "node2"); err != nil {
		t.Fatal(err)
	}
	if cat.ReplicaCount("grafic/ic") != 2 {
		t.Fatalf("replica cap ignored: count %d, want 2", cat.ReplicaCount("grafic/ic"))
	}
	mu.Lock()
	if len(moves) != 2 || moves[0].mb != 1 || moves[0].to != "node1" {
		t.Errorf("observed moves %v, want two 1-MB transfers", moves)
	}
	mu.Unlock()

	// Sticky data is fetched but never re-homed.
	if err := cat.Put("scratch", "node3", Sticky, []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.FetchTo("scratch", "node0"); err != nil {
		t.Fatal(err)
	}
	if cat.ReplicaCount("scratch") != 1 {
		t.Fatal("sticky data must not gain replicas via FetchTo")
	}
}
