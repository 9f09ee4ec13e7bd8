package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/diet"
	"repro/internal/gateway"
	"repro/internal/gwproto"
	"repro/internal/logsvc"
)

// runConfig is one benchmark run: one workload, one seed, one length.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the measured phases together
	Trace    bool    // record the benchmark's spans and turn the program's own on
	Setups   int     // how many times set-up is repeated (0 = the workload's default)
	HeapOps  int     // operations before heap_mb is read (0 = the workload's default)
	AllCPUs  bool    // the process is on every CPU: saturate with at least nproc callers
	OutDir   string  // scratch space and trace files
	Fault    bool    // tests only: the no-op service returns a wrong output
}

// env is what a workload needs besides its configuration.
type env struct {
	cfg   runConfig
	tally *tally
	rng   *rand.Rand
	tr    *tracer     // nil unless cfg.Trace
	bus   *logsvc.Bus // nil unless cfg.Trace
}

func newEnv(cfg runConfig) *env {
	e := &env{cfg: cfg, tally: &tally{}, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Trace {
		e.tr = &tracer{}
		e.bus = logsvc.New(1 << 16)
	}
	return e
}

// events is the sink handed to the program: its own spans are on only in a
// traced run, so the end-to-end numbers are measured with tracing off.
func (e *env) events() diet.EventSink {
	if e.bus == nil {
		return nil
	}
	return e.bus
}

func (e *env) phase(share float64) time.Duration {
	return time.Duration(e.cfg.Seconds * share * float64(time.Second))
}

// outcome is what one workload run measured, before it is turned into the
// named metrics.
type outcome struct {
	SetupS []float64 // one sample per repeated set-up
	Blocks []block   // the measured phases, block by block
	Ops    int       // operations in the timed phases
	HeapMB float64   // live heap after the fixed-count phase
	// RetainedKB is what the live heap grew by over the timed phases, per
	// operation of them.
	RetainedKB float64
	Proc       procDelta
	Elapsed    time.Duration // measured phases, wall clock
	Notes      []string
}

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// procSnap reads the process-wide counters a layer change moves.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

// procDelta is the difference of two snapshots.
type procDelta struct {
	Wall, CPU, GCPause time.Duration
	Mallocs, Bytes     uint64
}

func takeProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{
		Wall: a.at.Sub(b.at), CPU: a.cpu - b.cpu, GCPause: a.gcPause - b.gcPause,
		Mallocs: a.mallocs - b.mallocs, Bytes: a.bytes - b.bytes,
	}
}

// heapMB is the memory the program still holds once garbage is gone: live
// heap objects after a collection. (HeapAlloc, not HeapInuse: whole spans
// come and go with fragmentation, which on the simulator's sub-megabyte
// heap alone moved the reading by 17% between identical runs.)
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes sweeping what the first freed
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// heapAfter runs op a fixed number of times on the fresh, warmed-up stack
// and reads the heap, platform still up. The count is fixed, not timed: the
// program keeps a few KB per call (Client.calls, the SeDs' solve records),
// so the heap after a time-boxed phase tracks how many operations fitted in
// it — a faster program would read as a bigger heap. Every workload calls
// this before its timed phases.
func (o *outcome) heapAfter(e *env, def int, op func() error) {
	n := def
	if e.cfg.HeapOps > 0 {
		n = e.cfg.HeapOps
	}
	for i := 0; i < n; i++ {
		op()
	}
	o.HeapMB = heapMB()
	o.notef("heap read after %d operations", n)
}

// measure runs the timed phases between two process snapshots, then reads
// the heap again for what the phases' operations left behind.
func (o *outcome) measure(phases func()) {
	runtime.GC()
	before := takeProc()
	phases()
	after := takeProc()
	o.Proc = after.since(before)
	o.Elapsed = o.Proc.Wall
	if o.Ops > 0 {
		o.RetainedKB = (heapMB() - o.HeapMB) * 1024 / float64(o.Ops)
	}
}

// repeatSetup builds the workload's stack n times, timing each build, and
// closes all but the last: set-up time is reported as a median, so that it
// can be compared between commits.
func repeatSetup[T any](n int, build func() (T, error), closeFn func(T)) (T, []float64, error) {
	var last T
	var samples []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		samples = append(samples, time.Since(t0).Seconds())
		last = s
	}
	return last, samples, nil
}

func (e *env) setups(def int) int {
	if e.cfg.Setups > 0 {
		return e.cfg.Setups
	}
	return def
}

// callers is how many callers a saturation phase runs: the fixed default,
// or in the unpinned pass at least one per CPU.
func (e *env) callers(def int) int {
	if e.cfg.AllCPUs {
		return max(def, runtime.NumCPU())
	}
	return def
}

// satCallers is how many callers a saturation phase of a call workload runs
// and how many DAG nodes a campaign keeps in flight: the smallest number
// that lets requests overlap, fixed so that a result does not depend on the
// machine's CPU count. gatewayConns is how many HTTP connections the gateway
// client may open, and its saturation phase keeps busy. With 2, whether the
// two requests fell into step and shared a finding phase flipped from block
// to block (154 to 267 solves/s within one run); with 4 there is always
// someone to share with (460 to 544).
const (
	satCallers   = 2
	gatewayConns = 4
)

// runBlocks is how many blocks the measured time of a live workload is cut
// into. Each block holds every phase of the workload, so each metric samples
// the whole run, and a disturbance of one or two blocks does not move the
// median over them.
const runBlocks = 5

// warmupSeq is where the sequence numbers of the discarded warm-up block
// start, clear of the measured ones.
const warmupSeq = 1 << 30

// callWorkload is the part in which noop_tcp and payload_tcp differ.
type callWorkload struct {
	name     string
	service  string
	warmup   int // calls in the discarded warm-up block
	heapOps  int // calls after which heap_mb is read
	spec     func(e *env, pr *probe) diet.ServiceSpec
	requests func(e *env) requestGen
}

// requestGen makes request seq and the check of its output, both drawn from
// the run's seed.
type requestGen func(seq int) (*diet.Profile, func(*diet.Profile) error, error)

var noopCalls = callWorkload{
	name: "noop_tcp", service: noopService, warmup: 40, heapOps: 300,
	spec: func(e *env, pr *probe) diet.ServiceSpec { return noopSpec(pr, e.cfg.Fault) },
	requests: func(e *env) requestGen {
		base := e.rng.Int63n(1 << 40)
		return func(seq int) (*diet.Profile, func(*diet.Profile) error, error) {
			v := base + int64(seq)
			p, err := newNoopProfile(v)
			return p, func(p *diet.Profile) error { return checkNoop(p, v) }, err
		}
	},
}

var payloadCalls = callWorkload{
	name: "payload_tcp", service: payloadService, warmup: 8, heapOps: 32,
	spec: func(e *env, pr *probe) diet.ServiceSpec { return payloadSpec(pr) },
	requests: func(e *env) requestGen {
		// Distinct inputs, so a reply cannot be right by repetition: windows
		// of one random buffer, each a word further in, so that the pool adds
		// one input's size, not sixteen, to the heap heap_mb reads.
		const pool = 16
		buf := make([]byte, payloadInSize+8*pool)
		e.rng.Read(buf)
		inputs := make([][]byte, pool)
		sums := make([]uint64, pool)
		for i := range inputs {
			inputs[i] = buf[8*i : 8*i+payloadInSize]
			sums[i] = wordSum(inputs[i])
		}
		return func(seq int) (*diet.Profile, func(*diet.Profile) error, error) {
			k := seq % pool
			p, err := newPayloadProfile(inputs[k])
			return p, func(p *diet.Profile) error { return checkPayload(p, sums[k]) }, err
		}
	},
}

// liveStack is a deployed platform with one client session.
type liveStack struct {
	dep    *diet.Deployment
	client *diet.Client
}

func (s *liveStack) close() {
	if s == nil {
		return
	}
	s.client.Finalize()
	s.dep.Close()
}

// callOp returns the closed-loop operation: one GridRPC call and its output
// check. Untraced it is a single Client.Call. Traced it is the same call
// made as its two public halves — FindServers, then Call on the servers
// found — so the benchmark can record a root "call" span with "find" and
// "solve" children; the wrapped SolveFunc adds "service" under "solve".
func (w callWorkload) callOp(e *env, s *liveStack, next requestGen, counter *atomic.Int64) func() error {
	return func() error {
		seq := int(counter.Add(1))
		p, check, err := next(seq)
		if err != nil {
			return e.tally.op(err)
		}
		if e.tr == nil {
			if _, err := s.client.Call(p); err != nil {
				return e.tally.op(err)
			}
			return e.tally.op(check(p))
		}
		req := fmt.Sprintf("%s-%d", w.name, seq)
		root := e.tr.newID()
		t0 := time.Now()
		reply, _, err := s.client.FindServers(w.service, 0)
		t1 := time.Now()
		if err != nil {
			return e.tally.op(err)
		}
		info, err := s.client.Call(p, diet.WithServers(reply, 0))
		t2 := time.Now()
		if err != nil {
			return e.tally.op(err)
		}
		e.tr.add(span{Parent: root, Name: "find", Req: req, Start: t0, End: t1})
		e.tr.add(span{Parent: root, Name: "solve", Req: req, Link: info.RequestID, Detail: info.Server, Start: t1, End: t2})
		e.tr.add(span{ID: root, Name: "call", Req: req, Start: t0, End: t2})
		return e.tally.op(check(p))
	}
}

// run measures a call workload: in each block a solo phase for the latency
// one synchronous caller feels, then a saturation phase with satCallers.
func (w callWorkload) run(e *env) (*outcome, error) {
	o := &outcome{}
	next := w.requests(e)
	build := func() (*liveStack, error) {
		pr := &probe{tr: e.tr}
		dep, err := deployPaper([]diet.ServiceSpec{w.spec(e, pr)}, e.events())
		if err != nil {
			return nil, err
		}
		client, err := dep.Client()
		if err != nil {
			dep.Close()
			return nil, err
		}
		s := &liveStack{dep: dep, client: client}
		var seq atomic.Int64
		seq.Store(warmupSeq)
		op := w.callOp(e, s, next, &seq)
		for i := 0; i < w.warmup; i++ {
			op()
		}
		return s, nil
	}
	stack, setup, err := repeatSetup(e.setups(7), build, (*liveStack).close)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	o.SetupS = setup

	var seq atomic.Int64
	op := w.callOp(e, stack, next, &seq)
	o.heapAfter(e, w.heapOps, op)
	callers := e.callers(satCallers)
	o.measure(func() {
		for b := 0; b < runBlocks; b++ {
			solo := closedLoop(1, e.phase(0.5/runBlocks), op)
			sat := closedLoop(callers, e.phase(0.5/runBlocks), op)
			o.Blocks = append(o.Blocks, newBlock(ms(solo.Lat), sat.rate()))
			o.Ops += solo.Attempted + sat.Attempted
		}
	})
	o.notef("%d blocks, each a solo phase (1 caller: latency) and a saturation phase (%d callers: throughput); %d calls", runBlocks, callers, o.Ops)
	return o, nil
}

// gatewayStack is the noop platform behind a gateway served over HTTP.
type gatewayStack struct {
	liveStack
	gw       *gateway.Gateway
	url      string
	shutdown func() error
	http     *http.Client
}

func (s *gatewayStack) close() {
	if s == nil {
		return
	}
	s.http.CloseIdleConnections()
	s.shutdown()
	s.gw.Close()
	s.liveStack.close()
}

// newGatewayStack deploys the noop platform, fronts it with a gateway and
// opens an HTTP client capped at conns connections.
func newGatewayStack(pr *probe, faulty bool, events diet.EventSink, conns int) (*gatewayStack, error) {
	dep, err := deployPaper([]diet.ServiceSpec{noopSpec(pr, faulty)}, events)
	if err != nil {
		return nil, err
	}
	client, err := dep.Client()
	if err != nil {
		dep.Close()
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{Naming: dep.NamingAddr, MAs: []string{dep.MA.Name()}, Events: events})
	if err != nil {
		dep.Close()
		return nil, err
	}
	addr, shutdown, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		gw.Close()
		dep.Close()
		return nil, err
	}
	return &gatewayStack{
		liveStack: liveStack{dep: dep, client: client},
		gw:        gw, url: "http://" + addr + "/api/v1/solve", shutdown: shutdown,
		http: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}, nil
}

// solveHTTP posts one no-op solve for input v and checks the reply's schema
// version and output argument. It returns the program's request ID.
func (s *gatewayStack) solveHTTP(v int64) (string, error) {
	p, err := newNoopProfile(v)
	if err != nil {
		return "", err
	}
	req, err := p.WireRequest()
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := s.http.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("gateway answered HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rep gwproto.SolveReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return "", fmt.Errorf("decoding gateway reply: %w", err)
	}
	if rep.SchemaVersion != gwproto.Version {
		return rep.RequestID, fmt.Errorf("gateway reply has schema_version %d, want %d", rep.SchemaVersion, gwproto.Version)
	}
	if len(rep.Args) != 2 || rep.Args[1].Int == nil || *rep.Args[1].Int != v+1 {
		return rep.RequestID, fmt.Errorf("gateway noop(%d) returned args %+v, want %d", v, rep.Args, v+1)
	}
	return rep.RequestID, nil
}

// openRate is the fixed arrival rate of gateway_http's open phase, requests
// per second: about a quarter of what one core serves without batching
// (one solve takes about 7 ms of it). At 60 req/s the queue amplified every
// slowdown of the machine into the tail. openShare is the open phase's part
// of a block, the larger one so that a block's tail rests on ~100 requests.
const (
	openRate  = 40
	openShare = 0.6
)

// runGateway measures the front door: independent portal users arriving in
// an open loop at a fixed rate, then a closed loop at saturation.
func runGateway(e *env) (*outcome, error) {
	const warmup, heapOps = 40, 300
	conns := e.callers(gatewayConns)
	o := &outcome{}
	base := e.rng.Int63n(1 << 40)
	op := func(s *gatewayStack, counter *atomic.Int64) func() error {
		return func() error {
			seq := counter.Add(1)
			t0 := time.Now()
			reqID, err := s.solveHTTP(base + seq)
			if e.tr != nil {
				e.tr.add(span{Name: "http_solve", Req: fmt.Sprintf("gateway_http-%d", seq), Link: reqID, Start: t0, End: time.Now()})
			}
			return e.tally.op(err)
		}
	}
	build := func() (*gatewayStack, error) {
		s, err := newGatewayStack(&probe{tr: e.tr}, e.cfg.Fault, e.events(), conns)
		if err != nil {
			return nil, err
		}
		var seq atomic.Int64
		seq.Store(warmupSeq)
		warm := op(s, &seq)
		for i := 0; i < warmup; i++ {
			warm()
		}
		return s, nil
	}
	stack, setup, err := repeatSetup(e.setups(7), build, (*gatewayStack).close)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	o.SetupS = setup

	var seq atomic.Int64
	solve := op(stack, &seq)
	o.heapAfter(e, heapOps, solve)
	var late []float64
	o.measure(func() {
		for b := 0; b < runBlocks; b++ {
			open := openLoop(poissonSchedule(e.rng, openRate, e.phase(openShare/runBlocks)), solve)
			sat := closedLoop(conns, e.phase((1-openShare)/runBlocks), solve)
			o.Blocks = append(o.Blocks, newBlock(ms(open.Lat), sat.rate()))
			o.Ops += open.Attempted + sat.Attempted
			late = append(late, ms(open.Late)...)
		}
	})
	st := stack.gw.Status()
	o.notef("%d blocks, each an open phase (Poisson %d req/s, timed from the due time: latency) and a saturation phase (%d connections: throughput); %d solves; generator lateness p95 %.3f ms",
		runBlocks, openRate, conns, o.Ops, percentile(late, 95))
	o.notef("gateway status: submitted %d, batched %d, shed %d, errors %d", st.Submitted, st.Batched, st.Shed, st.Errors)
	return o, nil
}
