package diet

import (
	"fmt"
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
		// A one-place FIFO, taken: set before the dispatcher exists, so the
		// next solve finds it full for certain.
		s.jobs = make(chan *sedJob, 1)
		s.jobs <- &sedJob{grant: make(chan struct{})}
		_, err := s.Solve(request())
		if err == nil || !strings.Contains(err.Error(), "queue full") {
			t.Fatalf("solve on a full queue = %v, want it refused", err)
		}
		sedBalance(t, s, "work", 0, 0, 0)
	})

	t.Run("stopped while queued", func(t *testing.T) {
		s := newSeD("SeD-stop")
		go s.dispatch()
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
