package diet

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// The chaos suite kills components of a live 2-level hierarchy while solves,
// gossip rounds and heartbeat sweeps run concurrently, and asserts the
// self-healing invariants: no solve is ever silently lost (every call either
// succeeds, possibly after a client-side requeue, or returns an error), a
// restarted SeD rejoins with its CoRI training restored from a snapshot, and
// an orphaned SeD re-homes under a fallback agent. Run it under -race: the
// interleavings are the point.

// chaosClient hammers the deployment until stop closes, counting outcomes.
type chaosClient struct {
	ok   atomic.Int64
	fail atomic.Int64
}

func (cc *chaosClient) run(t *testing.T, d *Deployment, stop <-chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	client, err := d.Client()
	if err != nil {
		t.Errorf("opening chaos client: %v", err)
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p, _ := NewProfile("work", 0, 0, 1)
			p.SetScalarInt(0, int64(i), Volatile)
			if _, err := client.Call(p); err != nil {
				cc.fail.Add(1)
				continue
			}
			if v, _ := p.ScalarInt(1); v != int64(2*i) {
				t.Errorf("solve corrupted: got %d want %d", v, 2*i)
			}
			cc.ok.Add(1)
		}
	}()
}

// gossipStorm drives gossip rounds through every agent concurrently with the
// chaos, the background traffic a live hierarchy always carries.
func gossipStorm(d *Deployment, stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			d.MA.GossipRound()
			for _, la := range d.LAs {
				la.GossipRound()
			}
		}
	}()
}

func TestChaosSeDCrashRestartUnderLoad(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-chaos", LAs: []string{"LA1", "LA2"},
		SeDs: []SeDSpec{
			{Name: "SeD-chaos-a", Parent: "LA1", Capacity: 2, PowerGFlops: 60,
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
			{Name: "SeD-chaos-b", Parent: "LA2", Capacity: 2, PowerGFlops: 40,
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
			{Name: "SeD-chaos-c", Parent: "LA2", Capacity: 2, PowerGFlops: 20,
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
		},
		Policy: scheduler.NewRoundRobin(), Local: true,
	})

	// Warm the victim's monitor so the restart has training to lose.
	warm, _ := d.Client()
	for i := 0; i < 5; i++ {
		p, _ := NewProfile("work", 0, 0, 1)
		p.SetScalarInt(0, int64(i), Volatile)
		if _, err := warm.Call(p); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	gossipStorm(d, stop, &wg)
	var cc chaosClient
	for i := 0; i < 4; i++ {
		cc.run(t, d, stop, &wg)
	}
	time.Sleep(20 * time.Millisecond) // load up before the crash

	// Crash: snapshot the monitor (the -cori-snapshot file of the live stack),
	// kill the SeD, and let the LA's heartbeat sweeps evict it.
	victim := d.SeDs[0]
	snap := victim.Monitor().Snapshot()
	victim.Close()
	la1 := d.LAs[0]
	for i := 0; i < 3; i++ {
		la1.SweepChildren()
	}
	if got := len(la1.Children()); got != 0 {
		t.Fatalf("dead SeD still held by LA1: %d children", got)
	}
	time.Sleep(20 * time.Millisecond) // survivors carry the load alone

	// Restart under the same name, warm-restoring the snapshot — the monitor
	// must survive the crash, not retrain from scratch.
	reborn, err := NewSeD(SeDConfig{
		Name: "SeD-chaos-a", Parent: "LA1", Naming: d.NamingAddr,
		Capacity: 2, PowerGFlops: 60, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := sleepService("work", time.Millisecond, nil)
	if err := reborn.AddService(spec.Desc, spec.Solve); err != nil {
		t.Fatal(err)
	}
	if err := reborn.Monitor().Restore(snap); err != nil {
		t.Fatalf("warm restore: %v", err)
	}
	if err := reborn.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer reborn.Close()
	if got := len(la1.Children()); got != 1 {
		t.Fatalf("restarted SeD did not re-attach: LA1 holds %d children", got)
	}
	found := false
	for _, svc := range reborn.Monitor().Services() {
		if svc == "work" {
			found = true
		}
	}
	if !found {
		t.Fatal("restarted monitor lost its training: no model for \"work\"")
	}

	time.Sleep(20 * time.Millisecond) // solves flow through the healed tree
	close(stop)
	wg.Wait()

	// No solve silently lost: with two survivors and client-side requeue,
	// every call must have completed successfully.
	if cc.fail.Load() != 0 {
		t.Errorf("%d solves lost across the crash/restart (%d succeeded)",
			cc.fail.Load(), cc.ok.Load())
	}
	if cc.ok.Load() == 0 {
		t.Fatal("chaos clients made no progress")
	}
	// The healed tree serves from all three SeDs again.
	if ests := d.MA.Collect("work"); len(ests) != 3 {
		t.Errorf("healed hierarchy collects %d estimates, want 3", len(ests))
	}
}

func TestChaosLAKillOrphanReadoption(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-chaos2", LAs: []string{"LA1", "LA2"},
		SeDs: []SeDSpec{
			{Name: "SeD-chaos2-b", Parent: "LA2",
				Services: []ServiceSpec{sleepService("work", time.Millisecond, nil)}},
		},
		Policy: scheduler.NewRoundRobin(), Local: true,
	})
	// The orphan candidate runs its parent watchdog against LA1 with LA2 as
	// the fallback (DeploymentSpec keeps watchdogs off, so build it by hand).
	orphan, err := NewSeD(SeDConfig{
		Name: "SeD-chaos2-a", Parent: "LA1", Naming: d.NamingAddr, Local: true,
		ParentProbe: 2 * time.Millisecond, ParentMaxMissed: 2,
		FallbackParents: []string{"LA2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := sleepService("work", time.Millisecond, nil)
	if err := orphan.AddService(spec.Desc, spec.Solve); err != nil {
		t.Fatal(err)
	}
	if err := orphan.Start(); err != nil {
		t.Fatal(err)
	}
	defer orphan.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	gossipStorm(d, stop, &wg)
	var cc chaosClient
	for i := 0; i < 3; i++ {
		cc.run(t, d, stop, &wg)
	}
	time.Sleep(10 * time.Millisecond)

	// Kill LA1: its SeD is orphaned, the MA holds a dead child.
	d.LAs[0].Close()
	for i := 0; i < 3; i++ {
		d.MA.SweepChildren()
	}
	// The watchdog must declare the parent dead and re-home under LA2.
	deadline := time.Now().Add(5 * time.Second)
	for orphan.ParentFailoverCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("orphaned SeD never re-homed under the fallback parent")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Both SeDs answer through LA2 now.
	deadline = time.Now().Add(5 * time.Second)
	for len(d.MA.Collect("work")) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("re-adopted SeD not reachable: collect sees %d estimates, want 2",
				len(d.MA.Collect("work")))
		}
		time.Sleep(2 * time.Millisecond)
	}

	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if cc.ok.Load() == 0 {
		t.Fatal("chaos clients made no progress across the LA kill")
	}
	if cc.fail.Load() != 0 {
		t.Errorf("%d solves lost across the LA kill (%d succeeded)", cc.fail.Load(), cc.ok.Load())
	}
	if got := d.MA.Topology(); len(got.Children) != 1 {
		t.Errorf("MA still lists %d children after evicting the dead LA, want 1", len(got.Children))
	}
}

// TestChaosKilledSolveRequeues pins the fail-fast contract a dying SeD owes
// its queued callers: a solve waiting for a slot when the SeD closes must
// error out immediately (so the client requeues it elsewhere), not block on a
// grant that will never come.
func TestChaosKilledSolveRequeues(t *testing.T) {
	rpc.ResetLocal()
	block := make(chan struct{})
	desc, _ := NewProfileDesc("stall", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	stall := ServiceSpec{Desc: desc, Solve: func(p *Profile) error {
		<-block
		return p.SetScalarInt(1, 1, Volatile)
	}}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-chaos3", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-chaos3-a", Parent: "LA1", Capacity: 1, Services: []ServiceSpec{stall}},
		},
		Local: true,
	})
	defer close(block)

	// Occupy the single slot, then queue a second solve behind it.
	sed := d.SeDs[0]
	first := make(chan error, 1)
	second := make(chan error, 1)
	go func() {
		p, _ := NewProfile("stall", 0, 0, 1)
		p.SetScalarInt(0, 1, Volatile)
		_, err := sed.Solve(p)
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sed.Estimate("stall").Est.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		p, _ := NewProfile("stall", 0, 0, 1)
		p.SetScalarInt(0, 2, Volatile)
		_, err := sed.Solve(p)
		second <- err
	}()
	deadline = time.Now().Add(5 * time.Second)
	for sed.Estimate("stall").Est.QueueLen == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second solve never queued")
		}
		time.Sleep(time.Millisecond)
	}

	sed.Close()
	select {
	case err := <-second:
		if err == nil {
			t.Fatal("queued solve reported success on a dead SeD")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued solve hung on the dead SeD instead of failing fast")
	}
}

// TestCollectNDeadChildFailsFastAndEvicts is the CollectN regression: a dead
// child must cost a fast error, not a full RPC timeout per collect, and after
// CollectMissEvict consecutive misses the agent sheds it entirely. A live
// sibling is never harmed by the dead child's misses.
func TestCollectNDeadChildFailsFastAndEvicts(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{MAName: "MA-cme", Local: true})
	la, err := NewAgent(AgentConfig{
		Name: "LA-cme", Kind: LocalAgent, Parent: "MA-cme", Naming: d.NamingAddr,
		Local: true, CollectTimeout: 5 * time.Second, CollectMissEvict: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Start(); err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	var seds []*SeD
	for _, name := range []string{"SeD-cme-a", "SeD-cme-b"} {
		sed, err := NewSeD(SeDConfig{Name: name, Parent: "LA-cme", Naming: d.NamingAddr, Local: true})
		if err != nil {
			t.Fatal(err)
		}
		spec := sleepService("work", 0, nil)
		if err := sed.AddService(spec.Desc, spec.Solve); err != nil {
			t.Fatal(err)
		}
		if err := sed.Start(); err != nil {
			t.Fatal(err)
		}
		defer sed.Close()
		seds = append(seds, sed)
	}
	if got := len(la.Children()); got != 2 {
		t.Fatalf("LA holds %d children, want 2", got)
	}
	// A healthy collect establishes the zero-miss baseline.
	if ests := la.CollectN("work", 10); len(ests) != 2 {
		t.Fatalf("healthy collect: %d estimates, want 2", len(ests))
	}

	seds[0].Close()
	// Miss 1: the dead child costs a fast error, far under CollectTimeout,
	// and the live sibling still answers.
	t0 := time.Now()
	ests := la.CollectN("work", 10)
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("collect with a dead child took %v; it must fail fast, not ride the %v timeout",
			took, 5*time.Second)
	}
	if len(ests) != 1 || ests[0].ServerID != "SeD-cme-b" {
		t.Fatalf("collect past the dead child: %+v, want only SeD-cme-b", ests)
	}
	if got := len(la.Children()); got != 2 {
		t.Fatalf("child evicted after a single miss (grace is %d): %d children", 2, got)
	}
	// Miss 2 reaches the threshold: the dead child is evicted.
	la.CollectN("work", 10)
	kids := la.Children()
	if len(kids) != 1 || kids[0].Name != "SeD-cme-b" {
		t.Fatalf("after %d misses children = %+v, want only SeD-cme-b", 2, kids)
	}
	if la.EvictedCount() != 1 {
		t.Errorf("evicted count %d, want 1", la.EvictedCount())
	}
	// The survivor's streak never grew: many more collects leave it held.
	for i := 0; i < 5; i++ {
		la.CollectN("work", 10)
	}
	if got := len(la.Children()); got != 1 {
		t.Errorf("live child lost to collect-evict bookkeeping: %d children", got)
	}
}

// TestCollectNDeadChildRegistrationResets: a child that re-registers while a
// collect is in flight must not be evicted on the stale probe of its previous
// life (the regSeq guard).
func TestCollectNDeadChildRegistrationResets(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{MAName: "MA-cme2", Local: true})
	la, err := NewAgent(AgentConfig{
		Name: "LA-cme2", Kind: LocalAgent, Parent: "MA-cme2", Naming: d.NamingAddr,
		Local: true, CollectMissEvict: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Start(); err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	sed, err := NewSeD(SeDConfig{Name: "SeD-cme2", Parent: "LA-cme2", Naming: d.NamingAddr, Local: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := sleepService("work", 0, nil)
	sed.AddService(spec.Desc, spec.Solve)
	if err := sed.Start(); err != nil {
		t.Fatal(err)
	}
	sed.Close()
	la.CollectN("work", 10) // miss 1 of 2

	// The SeD restarts (new life, same name) before the streak completes.
	reborn, err := NewSeD(SeDConfig{Name: "SeD-cme2", Parent: "LA-cme2", Naming: d.NamingAddr, Local: true})
	if err != nil {
		t.Fatal(err)
	}
	reborn.AddService(spec.Desc, spec.Solve)
	if err := reborn.Start(); err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	for i := 0; i < 4; i++ {
		if ests := la.CollectN("work", 10); len(ests) != 1 {
			t.Fatalf("collect %d after restart: %d estimates, want 1", i, len(ests))
		}
	}
	if got := len(la.Children()); got != 1 {
		t.Fatalf("re-registered child evicted on its previous life's misses: %d children", got)
	}
	if fmt.Sprint(la.Children()[0].Name) != "SeD-cme2" {
		t.Fatalf("unexpected child set: %+v", la.Children())
	}
}

// sedBalance asserts a SeD's admission bookkeeping after every solve it was
// handed has returned: nothing queued or running, no service left in pending
// (not even at zero), the three solve counters at the given values — so
// started − completed − failed is the number still inside, zero — and the
// queue-depth gauge back at zero.
func sedBalance(t *testing.T, s *SeD, service string, started, completed, failed float64) {
	t.Helper()
	if st := s.Stats(); st.Queued != 0 || st.Running != 0 {
		t.Errorf("queued %d running %d after every solve returned, want 0 and 0", st.Queued, st.Running)
	}
	s.statMu.Lock()
	if len(s.pending) != 0 {
		t.Errorf("pending = %v, want no service left (a zeroed key is walked by every estimate)", s.pending)
	}
	s.statMu.Unlock()
	name := s.cfg.Name
	got := [3]float64{
		s.metrics.started.With(name, service).Value(),
		s.metrics.completed.With(name, service).Value(),
		s.metrics.failed.With(name, service).Value(),
	}
	if got != [3]float64{started, completed, failed} {
		t.Errorf("started/completed/failed = %v, want [%v %v %v]", got, started, completed, failed)
	}
	if depth := s.metrics.queueDepth.With(name).Value(); depth != 0 {
		t.Errorf("queue-depth gauge reads %v on an idle SeD", depth)
	}
}

// TestChaosRejectedSolvesLeaveCountersBalanced drives the two ways a SeD
// refuses a solve it has already looked at — its FIFO is full, or it stops
// while the solve is still queued — and checks each leaves the admission
// counters, the pending map, the solve counters and the depth gauge where a
// solve that never arrived would have: the scheduler reads the first two on
// every estimate and the operator reads the rest.
func TestChaosRejectedSolvesLeaveCountersBalanced(t *testing.T) {
	release := make(chan struct{})
	desc, _ := NewProfileDesc("work", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	newSeD := func(name string) *SeD {
		s, err := NewSeD(SeDConfig{Name: name, Capacity: 1, Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddService(desc, func(p *Profile) error {
			<-release
			return p.SetScalarInt(1, 1, Volatile)
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	request := func() *Profile {
		p, _ := NewProfile("work", 0, 0, 1)
		p.SetScalarInt(0, 1, Volatile)
		return p
	}

	t.Run("queue full", func(t *testing.T) {
		s := newSeD("SeD-full")
		// The FIFO filled to its bound by hand, so the next solve finds it
		// full for certain.
		s.statMu.Lock()
		for held := make(chan struct{}); s.waiting.len() < sedQueueCap; {
			s.waiting.push(held)
		}
		s.statMu.Unlock()
		_, err := s.Solve(request())
		if err == nil || !strings.Contains(err.Error(), "queue full") {
			t.Fatalf("solve on a full queue = %v, want it refused", err)
		}
		sedBalance(t, s, "work", 0, 0, 0)
	})

	t.Run("stopped while queued", func(t *testing.T) {
		s := newSeD("SeD-stop")
		errs := make(chan error, 2)
		go func() { _, err := s.Solve(request()); errs <- err }()
		waitFor(t, func() bool { return s.Stats().Running == 1 })
		go func() { _, err := s.Solve(request()); errs <- err }()
		waitFor(t, func() bool { return s.Stats().Queued == 1 })
		s.Close()
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "stopped before solving") {
			t.Fatalf("queued solve on a stopped SeD = %v, want it refused", err)
		}
		close(release) // the solve that held the slot runs to its end
		if err := <-errs; err != nil {
			t.Fatalf("running solve on a stopped SeD = %v, want it to finish", err)
		}
		sedBalance(t, s, "work", 2, 1, 1)
	})
}

// gatedSeD is a SeD whose "work" solves announce their input on started, then
// hold their slot until the gate of that input closes — so a test frees
// exactly one slot at a time and sees which queued solve it went to.
type gatedSeD struct {
	s       *SeD
	started chan int64
	gates   []chan struct{}
	errs    chan error
	arrived int // solves submitted
	settled int // solves whose error was collected
	running atomic.Int64
	peak    atomic.Int64
}

func newGatedSeD(t *testing.T, name string, capacity, solves int) *gatedSeD {
	t.Helper()
	s, err := NewSeD(SeDConfig{Name: name, Capacity: capacity, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedSeD{s: s, started: make(chan int64, solves), errs: make(chan error, solves)}
	for i := 0; i < solves; i++ {
		g.gates = append(g.gates, make(chan struct{}))
	}
	desc, _ := NewProfileDesc("work", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	if err := s.AddService(desc, func(p *Profile) error {
		id, err := p.ScalarInt(0)
		if err != nil {
			return err
		}
		n := g.running.Add(1)
		for peak := g.peak.Load(); n > peak && !g.peak.CompareAndSwap(peak, n); peak = g.peak.Load() {
		}
		g.started <- id
		<-g.gates[id]
		g.running.Add(-1)
		return p.SetScalarInt(1, id, Volatile)
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return g
}

// solve submits the next solve and returns once the SeD has admitted it —
// running or queued — so submissions arrive in the order they are made.
func (g *gatedSeD) solve(t *testing.T) {
	t.Helper()
	id := g.arrived
	g.arrived++
	go func() {
		p, _ := NewProfile("work", 0, 0, 1)
		p.SetScalarInt(0, int64(id), Volatile)
		_, err := g.s.Solve(p)
		g.errs <- err
	}()
	started := g.s.metrics.started.With(g.s.cfg.Name, "work")
	waitFor(t, func() bool { return started.Value() == float64(g.arrived) })
}

// next is the input of the next solve to be granted a slot.
func (g *gatedSeD) next(t *testing.T) int64 {
	t.Helper()
	select {
	case id := <-g.started:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no queued solve was granted a slot within 5s")
		return -1
	}
}

// nextSet is the inputs of the next n solves granted, in ascending order.
func (g *gatedSeD) nextSet(t *testing.T, n int) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = g.next(t)
	}
	slices.Sort(ids)
	return ids
}

// queued is the length of the SeD's FIFO, read under the lock that pops it.
func (g *gatedSeD) queued() int {
	g.s.statMu.Lock()
	defer g.s.statMu.Unlock()
	return g.s.waiting.len()
}

// settle is the error of the next solve to return.
func (g *gatedSeD) settle() error {
	g.settled++
	return <-g.errs
}

// finish closes every gate not yet closed and collects the errors of the
// solves still out.
func (g *gatedSeD) finish(t *testing.T, closed int) []error {
	t.Helper()
	for _, gate := range g.gates[closed:g.arrived] {
		close(gate)
	}
	var errs []error
	for g.settled < g.arrived {
		errs = append(errs, g.settle())
	}
	return errs
}

// idRange is from, from+1, …, to-1.
func idRange(from, to int) []int64 {
	var ids []int64
	for i := from; i < to; i++ {
		ids = append(ids, int64(i))
	}
	return ids
}

// TestChaosAdmissionFIFO pins the SeD's admission contract at capacities 1, 2
// and 4: solves are granted slots strictly in arrival order and never more
// than Capacity run at once; while a Reparent drains, freed slots go to the
// drain and a solve queued meanwhile is granted only when the drain ends —
// first, ahead of later arrivals; and Close under queued solves refuses them
// with the counters balanced.
func TestChaosAdmissionFIFO(t *testing.T) {
	const extra = 5 // solves queued behind the ones holding every slot
	for _, capacity := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("capacity %d", capacity), func(t *testing.T) {
			t.Run("arrival order", func(t *testing.T) {
				n := capacity + extra
				g := newGatedSeD(t, fmt.Sprintf("SeD-order-%d", capacity), capacity, n)
				for i := 0; i < n; i++ {
					g.solve(t)
				}
				if got := g.nextSet(t, capacity); !slices.Equal(got, idRange(0, capacity)) {
					t.Fatalf("first grants %v, want the first %d arrivals", got, capacity)
				}
				if st := g.s.Stats(); st.Running != capacity || st.Queued != extra {
					t.Fatalf("running %d queued %d, want %d and %d", st.Running, st.Queued, capacity, extra)
				}
				// Free one slot at a time: each goes to the oldest queued solve.
				for k := 0; k < extra; k++ {
					close(g.gates[k])
					if id := g.next(t); id != int64(capacity+k) {
						t.Fatalf("freed slot %d granted to solve %d, want %d (arrival order)", k, id, capacity+k)
					}
				}
				for _, err := range g.finish(t, extra) {
					if err != nil {
						t.Fatal(err)
					}
				}
				if peak := g.peak.Load(); peak > int64(capacity) {
					t.Fatalf("%d solves ran at once on %d slots", peak, capacity)
				}
				sedBalance(t, g.s, "work", float64(n), float64(n), 0)
			})

			t.Run("drain", func(t *testing.T) {
				rpc.ResetLocal()
				t.Cleanup(rpc.ResetLocal)
				parent := rpc.NewServer()
				parent.Register("agent:LA-new", rpc.HandlerFunc(map[string]func([]byte) ([]byte, error){
					"ChildRegister": func([]byte) ([]byte, error) { return rpc.Encode(ChildRegisterReply{OK: true}) },
				}))
				parentAddr, err := rpc.ServeLocal(fmt.Sprintf("agent-drain-%d", capacity), parent)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { parent.Close() })

				n := 2*capacity + 1
				g := newGatedSeD(t, fmt.Sprintf("SeD-drain-%d", capacity), capacity, n)
				for i := 0; i < capacity; i++ {
					g.solve(t)
				}
				g.nextSet(t, capacity)
				reparented := make(chan error, 1)
				go func() {
					_, err := g.s.Reparent(ReparentRequest{Parent: "LA-new", ParentAddr: parentAddr})
					reparented <- err
				}()
				waitFor(t, func() bool {
					g.s.statMu.Lock()
					defer g.s.statMu.Unlock()
					return g.s.drainFull != nil
				})
				// capacity+1 solves queue behind the drain.
				for i := 0; i <= capacity; i++ {
					g.solve(t)
				}
				// Each freed slot goes to the drain, none to the queue, until
				// the last one completes the drain.
				for k := 0; k < capacity; k++ {
					close(g.gates[k])
					if err := g.settle(); err != nil {
						t.Fatal(err)
					}
					if q := g.queued(); k < capacity-1 && q != capacity+1 {
						t.Fatalf("a slot freed during the drain went to the queue: %d queued, want %d", q, capacity+1)
					}
				}
				if err := <-reparented; err != nil {
					t.Fatal(err)
				}
				if got := g.nextSet(t, capacity); !slices.Equal(got, idRange(capacity, 2*capacity)) {
					t.Fatalf("after the drain granted %v, want the %d solves queued first", got, capacity)
				}
				if q := g.queued(); q != 1 {
					t.Fatalf("%d solves still queued after the drain, want 1", q)
				}
				close(g.gates[capacity])
				if id := g.next(t); id != int64(2*capacity) {
					t.Fatalf("freed slot granted to solve %d, want %d", id, 2*capacity)
				}
				for _, err := range g.finish(t, capacity+1) {
					if err != nil {
						t.Fatal(err)
					}
				}
				if got := g.s.Parent(); got != "LA-new" {
					t.Fatalf("parent = %q after the reparent, want LA-new", got)
				}
				sedBalance(t, g.s, "work", float64(n), float64(n), 0)
			})

			t.Run("close", func(t *testing.T) {
				n := capacity + 2
				g := newGatedSeD(t, fmt.Sprintf("SeD-close-%d", capacity), capacity, n+1)
				for i := 0; i < n; i++ {
					g.solve(t)
				}
				g.nextSet(t, capacity)
				g.s.Close()
				// The queued solves come back refused; then the running ones
				// finish, and their freed slots grant nothing new.
				for i := 0; i < 2; i++ {
					if err := g.settle(); err == nil || !strings.Contains(err.Error(), "stopped before solving") {
						t.Fatalf("queued solve on a closed SeD = %v, want it refused", err)
					}
				}
				for _, gate := range g.gates[:capacity] {
					close(gate)
				}
				for i := 0; i < capacity; i++ {
					if err := g.settle(); err != nil {
						t.Fatalf("running solve on a closed SeD = %v, want it to finish", err)
					}
				}
				g.solve(t)
				if err := g.settle(); err == nil || !strings.Contains(err.Error(), "stopped before solving") {
					t.Fatalf("solve arriving at a closed SeD = %v, want it refused", err)
				}
				sedBalance(t, g.s, "work", float64(n+1), float64(capacity), 3)
			})
		})
	}
}

// TestChaosConcurrentPersistentSolves runs two persistent solves on one SeD at
// once: the fast one names and stores its datum while the slow one is still
// computing and completes afterwards. Naming the datum reads the SeD's solve
// count, which a completing solve writes; under -race this pins that the read
// holds the lock the write does.
func TestChaosConcurrentPersistentSolves(t *testing.T) {
	desc, _ := NewProfileDesc("keep", 0, 0, 1)
	desc.Set(0, Scalar, Int)
	desc.Set(1, Scalar, Int)
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	s, err := NewSeD(SeDConfig{
		Name: "SeD-keep", Capacity: 2, Local: true, Naming: startLocalNaming(t, "naming-keep"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddService(desc, func(p *Profile) error {
		ms, err := p.ScalarInt(0)
		if err != nil {
			return err
		}
		// A sleep, not a channel: the slow solve must not synchronise with
		// the fast one, or the race detector could not see the two overlap.
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return p.SetScalarInt(1, ms, Persistent)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	solve := func(ms int64) (*SolveReply, error) {
		p, _ := NewProfile("keep", 0, 0, 1)
		p.SetScalarInt(0, ms, Volatile)
		return s.Solve(p)
	}
	type result struct {
		reply *SolveReply
		err   error
	}
	slow := make(chan result, 1)
	go func() {
		reply, err := solve(200)
		slow <- result{reply, err}
	}()
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	fast, err := solve(0)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing but this receive between the two: a Stats call here would order
	// the fast solve's read before the slow solve's write.
	r := <-slow
	if r.err != nil {
		t.Fatal(r.err)
	}
	ids := []string{fast.Args[0].DataID, r.reply.Args[0].DataID}
	if ids[0] == "" || ids[0] == ids[1] {
		t.Fatalf("persistent data IDs %q, want two distinct", ids)
	}
	for _, id := range ids {
		if _, ok := s.StoredData(id); !ok {
			t.Fatalf("datum %q not stored on the SeD", id)
		}
	}
}
