package workflow

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTopoOrderLinear(t *testing.T) {
	d := New("linear")
	d.Add("a", "s", nil, nil)
	d.Add("b", "s", []string{"a"}, nil)
	d.Add("c", "s", []string{"b"}, nil)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a,b,c" {
		t.Errorf("order = %v", order)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	d := New("cycle")
	d.Add("a", "s", []string{"c"}, nil)
	d.Add("b", "s", []string{"a"}, nil)
	d.Add("c", "s", []string{"b"}, nil)
	if _, err := d.TopoOrder(); err == nil {
		t.Error("cycle should be detected")
	}
}

func TestTopoOrderMissingDep(t *testing.T) {
	d := New("missing")
	d.Add("a", "s", []string{"ghost"}, nil)
	if _, err := d.TopoOrder(); err == nil {
		t.Error("missing dependency should be detected")
	}
}

func TestAddValidation(t *testing.T) {
	d := New("v")
	if err := d.Add("", "s", nil, nil); err == nil {
		t.Error("empty id should fail")
	}
	if err := d.Add("a", "s", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Add("a", "s", nil, nil); err == nil {
		t.Error("duplicate id should fail")
	}
}

func TestExecuteRespectsDependencies(t *testing.T) {
	d := New("deps")
	var mu sync.Mutex
	var log []string
	record := func(id string) Action {
		return func(ctx *TaskContext) error {
			mu.Lock()
			log = append(log, id)
			mu.Unlock()
			return nil
		}
	}
	d.Add("ic", "grafic", nil, record("ic"))
	d.Add("run", "ramses3d", []string{"ic"}, record("run"))
	d.Add("halo1", "haloMaker", []string{"run"}, record("halo1"))
	d.Add("halo2", "haloMaker", []string{"run"}, record("halo2"))
	d.Add("tree", "treeMaker", []string{"halo1", "halo2"}, record("tree"))

	rep := d.Execute(0)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	pos := map[string]int{}
	for i, id := range log {
		pos[id] = i
	}
	for _, pair := range [][2]string{{"ic", "run"}, {"run", "halo1"}, {"run", "halo2"}, {"halo1", "tree"}, {"halo2", "tree"}} {
		if pos[pair[0]] > pos[pair[1]] {
			t.Errorf("%s ran after %s", pair[0], pair[1])
		}
	}
	if len(rep.Results) != 5 {
		t.Errorf("%d results", len(rep.Results))
	}
}

func TestExecuteParallelBranches(t *testing.T) {
	// Independent branches overlap in time when maxParallel allows.
	d := New("par")
	var concurrent, peak atomic.Int32
	slow := func(ctx *TaskContext) error {
		cur := concurrent.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		concurrent.Add(-1)
		return nil
	}
	for i := 0; i < 4; i++ {
		d.Add(fmt.Sprintf("n%d", i), "s", nil, slow)
	}
	rep := d.Execute(0)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want >= 2", peak.Load())
	}
}

func TestExecuteMaxParallelBound(t *testing.T) {
	d := New("bound")
	var concurrent, peak atomic.Int32
	slow := func(ctx *TaskContext) error {
		cur := concurrent.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		concurrent.Add(-1)
		return nil
	}
	for i := 0; i < 6; i++ {
		d.Add(fmt.Sprintf("n%d", i), "s", nil, slow)
	}
	rep := d.Execute(2)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if peak.Load() > 2 {
		t.Errorf("peak concurrency %d exceeds bound 2", peak.Load())
	}
}

func TestExecuteFailureSkipsDependents(t *testing.T) {
	d := New("fail")
	boom := errors.New("boom")
	var cRan atomic.Bool
	d.Add("a", "s", nil, func(*TaskContext) error { return nil })
	d.Add("b", "s", []string{"a"}, func(*TaskContext) error { return boom })
	d.Add("c", "s", []string{"b"}, func(*TaskContext) error { cRan.Store(true); return nil })
	d.Add("d", "s", []string{"a"}, func(*TaskContext) error { return nil }) // independent branch

	rep := d.Execute(0)
	if rep.Err == nil || !errors.Is(rep.Results["b"].Err, boom) {
		t.Fatalf("failure not reported: %+v", rep.Err)
	}
	if cRan.Load() {
		t.Error("dependent of failed node must not run")
	}
	if !rep.Results["c"].Skipped {
		t.Error("c should be marked skipped")
	}
	if rep.Results["d"].Err != nil || rep.Results["d"].Skipped {
		t.Error("independent branch should still complete")
	}
}

func TestExecuteUnboundAction(t *testing.T) {
	d := New("unbound")
	d.Add("a", "s", nil, nil)
	rep := d.Execute(0)
	if rep.Err == nil {
		t.Error("unbound node should fail the run")
	}
}

func TestOutputsFlowAlongEdges(t *testing.T) {
	d := New("data")
	d.Add("gen", "s", nil, func(ctx *TaskContext) error {
		ctx.SetOutput(21)
		return nil
	})
	var got int
	d.Add("use", "s", []string{"gen"}, func(ctx *TaskContext) error {
		v, ok := ctx.DepOutput("gen")
		if !ok {
			return errors.New("no dep output")
		}
		got = v.(int) * 2
		return nil
	})
	rep := d.Execute(0)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if got != 42 {
		t.Errorf("dataflow result %d, want 42", got)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	doc := RamsesZoomDocument(2, 3)
	var buf strings.Builder
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseXML(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != doc.Name || len(parsed.Nodes) != len(doc.Nodes) {
		t.Fatalf("round trip: %d nodes vs %d", len(parsed.Nodes), len(doc.Nodes))
	}
	for i := range doc.Nodes {
		if parsed.Nodes[i] != doc.Nodes[i] {
			t.Errorf("node %d: %+v vs %+v", i, parsed.Nodes[i], doc.Nodes[i])
		}
	}
}

func TestFromDocumentValidates(t *testing.T) {
	doc := &Document{Name: "bad", Nodes: []NodeDef{
		{ID: "a", Service: "s", Depends: "b"},
		{ID: "b", Service: "s", Depends: "a"},
	}}
	if _, err := FromDocument(doc); err == nil {
		t.Error("cyclic document should fail")
	}
}

func TestRamsesZoomDocumentShape(t *testing.T) {
	doc := RamsesZoomDocument(3, 4)
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	// params, grafic1×2, roll, grafic2×3, mpi setup/stop, ramses3d,
	// halomaker×4, treemaker, galaxymaker, send = 17 nodes.
	if d.Size() != 17 {
		t.Errorf("workflow has %d nodes", d.Size())
	}
	cp, err := d.CriticalPathLen()
	if err != nil {
		t.Fatal(err)
	}
	// params→g1→roll→g1→g2×3→mpi→ramses→mpi_stop→halo→tree→galaxy→send = 14.
	if cp != 14 {
		t.Errorf("critical path %d, want 14", cp)
	}
	// The "no zoom" branch skips GRAFIC2 entirely (paper: "If nb levels == 0").
	flat := RamsesZoomDocument(0, 1)
	for _, n := range flat.Nodes {
		if strings.HasPrefix(n.ID, "grafic2") {
			t.Error("nLevels=0 should have no GRAFIC2 nodes")
		}
	}
}

func TestRamsesWorkflowExecutes(t *testing.T) {
	doc := RamsesZoomDocument(1, 2)
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	var mu sync.Mutex
	for _, n := range doc.Nodes {
		id := n.ID
		if err := d.Bind(id, func(ctx *TaskContext) error {
			mu.Lock()
			order = append(order, ctx.ID)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep := d.Execute(4)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(order) != d.Size() {
		t.Errorf("executed %d of %d nodes", len(order), d.Size())
	}
	if order[0] != "params" || order[len(order)-1] != "send_results" {
		t.Errorf("boundary nodes out of place: first %s last %s", order[0], order[len(order)-1])
	}
}

func TestBindUnknownNode(t *testing.T) {
	d := New("bind")
	if err := d.Bind("ghost", func(*TaskContext) error { return nil }); err == nil {
		t.Error("binding unknown node should fail")
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	d := New("diamond")
	d.Add("a", "s", nil, nil)
	d.Add("b", "s", []string{"a"}, nil)
	d.Add("c", "s", []string{"a"}, nil)
	d.Add("d", "s", []string{"b", "c"}, nil)
	cp, err := d.CriticalPathLen()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 3 {
		t.Errorf("critical path %d, want 3", cp)
	}
}

// TestRamsesZoomNoSnapshots is the regression test for the zero-snapshot
// document: treemaker used to be emitted with an empty Depends, detaching the
// post-processing chain from the simulation. With no HaloMaker stages it must
// hang off mpi_stop.
func TestRamsesZoomNoSnapshots(t *testing.T) {
	doc := RamsesZoomDocument(2, 0)
	var tree *NodeDef
	for i := range doc.Nodes {
		if doc.Nodes[i].ID == "treemaker" {
			tree = &doc.Nodes[i]
		}
	}
	if tree == nil {
		t.Fatal("no treemaker node")
	}
	if tree.Depends != "mpi_stop" {
		t.Fatalf("treemaker Depends = %q, want %q", tree.Depends, "mpi_stop")
	}
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	if pos["treemaker"] < pos["mpi_stop"] {
		t.Fatalf("treemaker at %d before mpi_stop at %d", pos["treemaker"], pos["mpi_stop"])
	}
}

// TestExecutePanicRecovered: a panicking action must fail its own node and
// skip its dependents — not crash the process.
func TestExecutePanicRecovered(t *testing.T) {
	d := New("panic")
	var sideRan atomic.Bool
	d.Add("a", "s", nil, func(*TaskContext) error { return nil })
	d.Add("bad", "s", []string{"a"}, func(*TaskContext) error { panic("decode blew up") })
	d.Add("child", "s", []string{"bad"}, func(*TaskContext) error { return nil })
	d.Add("side", "s", []string{"a"}, func(*TaskContext) error { sideRan.Store(true); return nil })

	rep := d.Execute(0)
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "panicked") {
		t.Fatalf("Report.Err = %v, want panic converted to an error", rep.Err)
	}
	if err := rep.Results["bad"].Err; err == nil || !strings.Contains(err.Error(), "decode blew up") {
		t.Fatalf("bad node error = %v", err)
	}
	if !rep.Results["child"].Skipped {
		t.Error("dependent of the panicked node should skip")
	}
	if !sideRan.Load() || rep.Results["side"].Err != nil {
		t.Error("independent branch should still complete")
	}
}

// TestExecuteSkipsExactlyTransitiveDependents: one failure must skip its
// transitive closure and nothing else, even through shared nodes.
func TestExecuteSkipsExactlyTransitiveDependents(t *testing.T) {
	d := New("exact")
	ran := make(map[string]*atomic.Bool)
	add := func(id string, deps []string, fail bool) {
		flag := &atomic.Bool{}
		ran[id] = flag
		d.Add(id, "s", deps, func(*TaskContext) error {
			flag.Store(true)
			if fail {
				return errors.New(id + " failed")
			}
			return nil
		})
	}
	add("root", nil, false)
	add("bad", []string{"root"}, true)
	add("mid", []string{"bad"}, false)
	add("leaf", []string{"mid", "ok2"}, false) // shared: skipped via mid even though ok2 succeeds
	add("ok1", []string{"root"}, false)
	add("ok2", []string{"ok1"}, false)

	rep := d.Execute(0)
	wantSkipped := map[string]bool{"mid": true, "leaf": true}
	for id, res := range rep.Results {
		if res.Skipped != wantSkipped[id] {
			t.Errorf("%s skipped=%v, want %v", id, res.Skipped, wantSkipped[id])
		}
		if wantSkipped[id] && ran[id].Load() {
			t.Errorf("%s ran despite a failed transitive dependency", id)
		}
	}
	for _, id := range []string{"root", "ok1", "ok2"} {
		if !ran[id].Load() || rep.Results[id].Err != nil {
			t.Errorf("independent node %s should have completed cleanly", id)
		}
	}
}

// TestAddDuplicateDepsDeduped: duplicate ids in Depends must collapse to one
// edge — double-counting them used to be able to strand the node waiting for
// a completion that can only arrive once.
func TestAddDuplicateDepsDeduped(t *testing.T) {
	d := New("dup")
	d.Add("a", "s", nil, func(ctx *TaskContext) error { ctx.SetOutput("va"); return nil })
	if err := d.Add("b", "s", []string{"a", "a", "a"}, func(ctx *TaskContext) error {
		v, ok := ctx.DepOutput("a")
		if !ok || v != "va" {
			return fmt.Errorf("dep output = %v, %v", v, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if dep := d.Document().Nodes[1].Depends; dep != "a" {
		t.Fatalf("Depends = %q, want deduped %q", dep, "a")
	}
	rep := d.Execute(0)
	if rep.Err != nil {
		t.Fatalf("duplicate deps wedged the run: %v", rep.Err)
	}
}

// TestReportErrDeterministic: with several failing nodes, Report.Err must be
// the first failure in topological order regardless of finish order.
func TestReportErrDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		d := New("multi-fail")
		errA, errB := errors.New("fail-a"), errors.New("fail-b")
		// a fails slowly, b fails instantly: wall-clock order is b then a.
		d.Add("a", "s", nil, func(*TaskContext) error { time.Sleep(2 * time.Millisecond); return errA })
		d.Add("b", "s", nil, func(*TaskContext) error { return errB })
		rep := d.Execute(0)
		if !errors.Is(rep.Err, errA) {
			t.Fatalf("iteration %d: Report.Err = %v, want the topo-first failure %v", i, rep.Err, errA)
		}
		if !errors.Is(rep.Results["b"].Err, errB) {
			t.Fatalf("iteration %d: b's own result lost: %v", i, rep.Results["b"].Err)
		}
	}
}

// TestExecutePrioritizedOrdersReadySet: with one slot, ready nodes must
// launch in decreasing priority, ties broken by topological order.
func TestExecutePrioritizedOrdersReadySet(t *testing.T) {
	d := New("prio")
	var mu sync.Mutex
	var got []string
	mk := func(id string) {
		d.Add(id, "s", nil, func(*TaskContext) error {
			mu.Lock()
			got = append(got, id)
			mu.Unlock()
			return nil
		})
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		mk(id)
	}
	rep := d.ExecutePrioritized(1, map[string]float64{"c": 30, "a": 10, "b": 10})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// c first (highest), then a and b (tied at 10, topo order), then d (0).
	if want := "c,a,b,d"; strings.Join(got, ",") != want {
		t.Fatalf("launch order %v, want %s", got, want)
	}
}

// ParseXML reads a workflow document.
func ParseXML(r io.Reader) (*Document, error) {
	var doc Document
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("workflow: parsing XML: %w", err)
	}
	return &doc, nil
}

// Document renders the DAG back to its XML form.
func (d *DAG) Document() *Document {
	doc := &Document{Name: d.name}
	for _, id := range d.order {
		doc.Nodes = append(doc.Nodes, d.tasks[id].def)
	}
	return doc
}

// CriticalPathLen returns the number of nodes on the longest dependency
// chain, a cheap parallelism diagnostic.
func (d *DAG) CriticalPathLen() (int, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return 0, err
	}
	depth := make(map[string]int, len(order))
	longest := 0
	for _, id := range order {
		dd := 1
		for _, dep := range d.tasks[id].deps {
			if depth[dep]+1 > dd {
				dd = depth[dep] + 1
			}
		}
		depth[id] = dd
		if dd > longest {
			longest = dd
		}
	}
	return longest, nil
}
