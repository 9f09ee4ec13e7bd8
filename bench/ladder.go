package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/cori"
	"repro/internal/dataman"
	"repro/internal/diet"
	"repro/internal/fft"
	"repro/internal/galics"
	"repro/internal/grafic"
	"repro/internal/gwproto"
	"repro/internal/halo"
	"repro/internal/logsvc"
	"repro/internal/mergertree"
	"repro/internal/naming"
	"repro/internal/nbody"
	"repro/internal/ramses"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/internal/workflow"
)

// The ladder times calls into each module's public functions, one rung per
// layer boundary, from outside the program. It does not depend on the
// workload: every traced run measures all of it, so a change to one layer
// shows on its rung whichever workload is being compared; a full run
// measures it once. README.md says
// which end-to-end metric each rung should move, and on which workload.

// exchangesPerCall is how many rpc exchanges one Client.Call makes on the
// paper platform: Submit, 6 LA collects, 11 SeD estimates, Solve.
const exchangesPerCall = 19

// rungs collects the ladder's metrics and what it takes to measure them.
type rungs struct {
	slice time.Duration // time given to one small rung
	out   map[string]metricValue
	tally *tally
	log   io.Writer
}

func (r *rungs) set(name string, value float64, unit string) {
	r.out[name] = metricValue{value, unit}
}

// timeIt calls fn again and again for about d, at least once, and returns
// the median time of one call and the number of calls. A call shorter than
// a few microseconds is timed in batches, so that the clock's own cost does
// not show.
func timeIt(d time.Duration, fn func()) (time.Duration, int) {
	t0 := time.Now()
	fn()
	first := time.Since(t0)
	batch := 1
	if first < 5*time.Microsecond {
		batch = 64
	}
	samples := []float64{float64(first)}
	n := 1
	for end := t0.Add(d); time.Now().Before(end); {
		s0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(s0))/float64(batch))
		n += batch
	}
	if len(samples) > 1 {
		samples = samples[1:] // the first call also paid for cold caches
	}
	return time.Duration(median(samples)), n
}

// timeErr is timeIt for a function that can fail. The rung counts as one
// operation of the run, failed if any of its calls failed: tallying every
// call would put a mutex inside rungs that take 60 ns.
func (r *rungs) timeErr(d time.Duration, fn func() error) (time.Duration, int) {
	var failed error
	med, n := timeIt(d, func() {
		if err := fn(); err != nil && failed == nil {
			failed = err
		}
	})
	r.tally.op(failed)
	return med, n
}

// time measures one rung and records it in the given unit ("us" or "ms").
func (r *rungs) time(name, unit string, d time.Duration, fn func() error) time.Duration {
	med, n := r.timeErr(d, fn)
	div := 1e3
	if unit == "ms" {
		div = 1e6
	}
	r.set(name, float64(med)/div, unit)
	fmt.Fprintf(r.log, "    rung %-28s n=%d\n", name, n)
	return med
}

// ladder measures every rung into the report. A small rung gets a slice of
// time in proportion to the run's length; the kernels and the campaign run
// once or a few times and take what they take.
func ladder(cfg runConfig, rep *report, log io.Writer) {
	t := &tally{}
	r := &rungs{
		slice: time.Duration(cfg.Seconds * (1 - 4*passShare) / 100 * float64(time.Second)),
		out:   rep.Metrics, tally: t, log: log,
	}
	fmt.Fprintf(log, "  ladder: %v per small rung\n", r.slice)
	sections := []struct {
		name string
		run  func() error
	}{
		{"rpc", r.rpcRungs},
		{"diet", r.dietRungs},
		{"scheduler+cori", r.policyRungs},
		{"gateway", r.gatewayRungs},
		{"kernels", func() error { return r.kernelRungs(cfg) }},
		{"simgrid", func() error { return r.simgridRungs(cfg.Seed) }},
		{"dataman+batch+logsvc", r.serviceRungs},
	}
	for _, s := range sections {
		t0 := time.Now()
		if err := s.run(); err != nil {
			t.op(fmt.Errorf("ladder section %s: %w", s.name, err))
		}
		fmt.Fprintf(log, "  ladder section %-22s %6.2f s\n", s.name, time.Since(t0).Seconds())
	}
	rep.count(t, log)
}

// rpcRungs: the transport alone. An echo handler on a bare rpc.Server, so
// invoke_tcp is one dial plus two gob envelopes and nothing else.
func (r *rungs) rpcRungs() error {
	srv := rpc.NewServer()
	srv.Register("echo", func(_ string, body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	local, err := rpc.ServeLocal(fmt.Sprintf("bench-echo-%d", os.Getpid()), srv)
	if err != nil {
		return err
	}

	small, err := newNoopProfile(7)
	if err != nil {
		return err
	}
	big, err := newPayloadProfile(make([]byte, payloadInSize))
	if err != nil {
		return err
	}
	smallWire, err := rpc.Encode(small)
	if err != nil {
		return err
	}
	bigWire, err := rpc.Encode(big)
	if err != nil {
		return err
	}
	mbPerS := func(bytes int, d time.Duration) float64 { return float64(bytes) / (1 << 20) / d.Seconds() }

	r.time("rpc.encode_us", "us", r.slice, func() error { _, err := rpc.Encode(small); return err })
	r.time("rpc.decode_us", "us", r.slice, func() error { return rpc.Decode(smallWire, &diet.Profile{}) })
	r.time("rpc.invoke_local_us", "us", r.slice, func() error { _, err := rpc.Invoke(local, "echo", "Echo", nil); return err })
	r.time("rpc.invoke_tcp_us", "us", 3*r.slice, func() error { _, err := rpc.Invoke(addr, "echo", "Echo", nil); return err })

	enc, _ := r.timeErr(r.slice, func() error { _, err := rpc.Encode(big); return err })
	r.set("rpc.encode_mb_s", mbPerS(payloadInSize, enc), "MB/s")
	dec, _ := r.timeErr(r.slice, func() error { return rpc.Decode(bigWire, &diet.Profile{}) })
	r.set("rpc.decode_mb_s", mbPerS(payloadInSize, dec), "MB/s")
	// The body goes out and comes back: twice its size crosses the socket.
	body := make([]byte, payloadInSize)
	inv, _ := r.timeErr(2*r.slice, func() error { _, err := rpc.Invoke(addr, "echo", "Echo", body); return err })
	r.set("rpc.invoke_tcp_mb_s", mbPerS(2*payloadInSize, inv), "MB/s")
	return nil
}

// dietRungs: the middleware above the transport, on the noop_tcp platform.
// The agents and SeDs are called through their public methods as well as
// through the client, so that fan-out and admission are timed without the
// hops above them.
func (r *rungs) dietRungs() error {
	dep, err := deployPaper([]diet.ServiceSpec{noopSpec(&probe{}, false)}, nil)
	if err != nil {
		return err
	}
	defer dep.Close()
	client, err := dep.Client()
	if err != nil {
		return err
	}
	defer client.Finalize()
	var seq atomic.Int64
	request := func() *diet.Profile {
		p, err := newNoopProfile(seq.Add(1))
		if err != nil {
			panic(err) // static indices
		}
		return p
	}

	nc := &naming.Client{Addr: dep.NamingAddr}
	r.time("naming.resolve_us", "us", r.slice, func() error { _, err := nc.Resolve(dep.MA.Name()); return err })

	var finding, queue, compute, residual []float64
	call := r.time("diet.call_ms", "ms", 6*r.slice, func() error {
		p := request()
		info, err := client.Call(p)
		if err != nil {
			return err
		}
		finding = append(finding, float64(info.Finding)/1e6)
		queue = append(queue, float64(info.QueueWait)/1e6)
		compute = append(compute, float64(info.Compute)/1e6)
		residual = append(residual, float64(info.Latency)/1e6)
		v, _ := p.ScalarInt(0)
		return checkNoop(p, v)
	})
	r.set("diet.callinfo_finding_ms", median(finding), "ms")
	r.set("diet.callinfo_queue_ms", median(queue), "ms")
	r.set("diet.callinfo_compute_ms", median(compute), "ms")
	// CallInfo.Latency is total − finding − compute: whatever the client
	// cannot attribute. ROADMAP aim 4 calls it dark.
	r.set("diet.callinfo_residual_ms", median(residual), "ms")

	var reply *diet.SubmitReply
	r.time("diet.find_ms", "ms", 4*r.slice, func() error {
		var err error
		reply, _, err = client.FindServers(noopService, 0)
		return err
	})
	rotate := 0
	r.time("diet.solve_leg_ms", "ms", 3*r.slice, func() error {
		rotate++
		_, err := client.Call(request(), diet.WithServers(reply, rotate))
		return err
	})
	r.time("diet.agent_submit_us", "us", 4*r.slice, func() error {
		_, err := dep.MA.Submit(diet.SubmitRequest{Service: noopService})
		return err
	})
	la := dep.LAs[0]
	for _, a := range dep.LAs {
		if len(a.Children()) > len(la.Children()) {
			la = a
		}
	}
	r.time("diet.agent_collect_us", "us", 2*r.slice, func() error {
		if n := len(la.CollectN(noopService, 0)); n != len(la.Children()) {
			return fmt.Errorf("%s collected %d estimates from %d children", la.Name(), n, len(la.Children()))
		}
		return nil
	})
	sed := dep.SeDs[0]
	estimate := r.time("diet.sed_estimate_us", "us", r.slice, func() error {
		if !sed.Estimate(noopService).OK {
			return fmt.Errorf("%s does not offer %s", sed.Name(), noopService)
		}
		return nil
	})
	solve := r.time("diet.sed_solve_us", "us", r.slice, func() error { _, err := sed.Solve(request()); return err })

	// How much of one call the rungs below it explain: the bare exchanges,
	// the encoding of a request and a reply on each, and the SeD-side work.
	// The rest is agent fan-out, ranking and bookkeeping, not yet a rung.
	us := func(name string) float64 { return r.out[name].Value }
	covered := exchangesPerCall*(us("rpc.invoke_tcp_us")+2*(us("rpc.encode_us")+us("rpc.decode_us"))) +
		float64(len(dep.SeDs))*float64(estimate)/1e3 + float64(solve)/1e3
	r.set("diet.ladder_coverage", covered/(float64(call)/1e3), "ratio")
	return nil
}

// policyRungs: the decision code the live agents and the simulator share.
func (r *rungs) policyRungs() error {
	ests := make([]scheduler.Estimate, 64)
	for i := range ests {
		ests[i] = scheduler.Estimate{
			ServerID: fmt.Sprintf("SeD-%02d", i), Service: noopService, Capacity: 1,
			QueueLen: i % 3, PowerGFlops: 40 + float64(i%7), LastSolveSeconds: -1,
			HasForecast: true, ForecastSamples: 16, EWMASolveSeconds: 10 + float64(i%5),
			ForecastBaseS: 1, ForecastPerGFlopS: 0.01, ForecastConfidence: 0.9,
		}
	}
	req := scheduler.Request{Service: noopService, WorkGFlops: 1000}
	for name, pol := range map[string]scheduler.Policy{
		"scheduler.rank64_rr_us": scheduler.NewRoundRobin(),
		"scheduler.rank64_fa_us": scheduler.NewForecastAware(),
	} {
		pol := pol
		r.time(name, "us", r.slice, func() error {
			if n := len(pol.Rank(req, ests)); n != len(ests) {
				return fmt.Errorf("%s ranked %d of %d servers", pol.Name(), n, len(ests))
			}
			return nil
		})
	}
	mon := cori.NewMonitor(cori.Config{})
	now := time.Now()
	i := 0
	r.time("cori.observe_us", "us", r.slice, func() error {
		i++
		mon.Observe(cori.Sample{Service: noopService, WorkGFlops: float64(100 + i%50), Duration: time.Duration(10+i%5) * time.Second, At: now.Add(time.Duration(i) * time.Second)})
		return nil
	})
	r.time("cori.forecast_us", "us", r.slice, func() error {
		if _, ok := mon.Forecast(noopService, 120); !ok {
			return fmt.Errorf("monitor has no forecast after %d samples", i)
		}
		return nil
	})
	return nil
}

// gatewayRungs: the front door. Gateway.Solve in process against the same
// solve over HTTP gives the HTTP layer's own cost; a short saturation burst
// gives the batching and shedding ratios from Gateway.Status.
func (r *rungs) gatewayRungs() error {
	s, err := newGatewayStack(&probe{}, false, nil, gatewayConns)
	if err != nil {
		return err
	}
	defer s.close()
	var seq atomic.Int64
	direct := r.time("gateway.solve_direct_us", "us", 4*r.slice, func() error {
		v := seq.Add(1)
		p, err := newNoopProfile(v)
		if err != nil {
			return err
		}
		if _, _, err := s.gw.Solve(p); err != nil {
			return err
		}
		return checkNoop(p, v)
	})
	overHTTP, _ := r.timeErr(4*r.slice, func() error { _, err := s.solveHTTP(seq.Add(1)); return err })
	r.set("gateway.http_overhead_us", float64(overHTTP-direct)/1e3, "us")

	wire, err := newNoopProfile(7)
	if err != nil {
		return err
	}
	r.time("gwproto.wire_us", "us", r.slice, func() error {
		req, err := wire.WireRequest()
		if err != nil {
			return err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var back gwproto.SolveRequest
		if err := json.Unmarshal(body, &back); err != nil {
			return err
		}
		_, err = diet.ProfileFromWire(back)
		return err
	})

	before := s.gw.Status()
	solve := func() error { _, err := s.solveHTTP(seq.Add(1)); return r.tally.op(err) }
	closedLoop(gatewayConns, 6*r.slice, solve)
	st := s.gw.Status()
	submitted := float64(st.Submitted - before.Submitted)
	shed := float64(st.Shed - before.Shed)
	r.set("gateway.batched_ratio", float64(st.Batched-before.Batched)/math.Max(1, submitted), "ratio")
	r.set("gateway.shed_ratio", shed/math.Max(1, submitted+shed), "ratio")
	open := openLoop(poissonSchedule(rand.New(rand.NewSource(1)), openRate, 8*r.slice), solve)
	r.set("gateway.gen_late_p95_ms", percentile(ms(open.Late), 95), "ms")
	return nil
}

// kernelRungs: one campaign through the wrapped services, then each kernel
// it is made of, standalone at the campaign's sizes.
func (r *rungs) kernelRungs(cfg runConfig) error {
	e := newEnv(runConfig{Seed: cfg.Seed, OutDir: cfg.OutDir})
	e.tally = r.tally
	rc := campaignConfig(cfg.Seed)
	stack, err := newCampaignStack(e)
	if err != nil {
		return err
	}
	rep, _, err := stack.runCampaign(e, rc, 0)
	r.tally.op(err)
	r.set("services.zoom1_solve_ms", stack.zoom1.meanMS(), "ms")
	r.set("services.zoom2_solve_ms", stack.zoom2.meanMS(), "ms")
	overhead := 0.0
	if rep != nil && len(rep.Calls) > 0 {
		for _, info := range rep.Calls {
			overhead += float64(info.Total-info.Compute) / 1e6
		}
		overhead /= float64(len(rep.Calls))
	}
	// What the middleware adds to a DAG node: the node's call minus the
	// compute the SeD reported for it (CallInfo.Total − CallInfo.Compute).
	r.set("workflow.node_overhead_ms", overhead, "ms")
	stack.close()

	doc := workflow.RamsesZoomDocument(0, 3)
	r.time("workflow.dag_noop_ms", "ms", r.slice, func() error {
		dag, err := workflow.FromDocument(doc)
		if err != nil {
			return err
		}
		for _, n := range doc.Nodes {
			if err := dag.Bind(n.ID, func(*workflow.TaskContext) error { return nil }); err != nil {
				return err
			}
		}
		return dag.Execute(satCallers).Err
	})

	var p1 *ramses.Phase1Result
	r.time("ramses.phase1_ms", "ms", 0, func() error {
		var err error
		p1, err = ramses.Phase1(rc, "")
		return err
	})
	if p1 == nil {
		return fmt.Errorf("ramses.Phase1 failed")
	}
	centre := [3]float64{0.5, 0.5, 0.5}
	if len(p1.Catalog.Halos) > 0 {
		centre = p1.Catalog.Halos[0].Pos
	}
	var p2 *ramses.Phase2Result
	r.time("ramses.phase2_ms", "ms", 0, func() error {
		var err error
		p2, err = ramses.Phase2(rc, centre, zoomLevels, "")
		return err
	})
	if p2 == nil {
		return fmt.Errorf("ramses.Phase2 failed")
	}

	gen, err := grafic.New(rc.Cosmo, rc.Seed)
	if err != nil {
		return err
	}
	var ics *grafic.ICs
	r.time("grafic.single_level_ms", "ms", r.slice, func() error {
		var err error
		ics, err = gen.SingleLevel(rc.NPart, rc.Box, rc.Astart)
		return err
	})

	const nfft = 32
	grid, err := fft.NewGrid3(nfft)
	if err != nil {
		return err
	}
	fwd := r.time("fft.forward3_ms", "ms", r.slice, func() error { return fft.Forward3(grid) })
	// Computed, not counted: 5·N·log2(N) floating-point operations for a
	// complex transform of N = n³ points.
	points := float64(nfft * nfft * nfft)
	r.set("fft.forward3_mflops", 5*points*math.Log2(points)/1e6/fwd.Seconds(), "Mflop/s")

	solver, err := nbody.New(nbody.Params{Ng: rc.NPart, Box: rc.Box, Cosmo: rc.Cosmo})
	if err != nil {
		return err
	}
	parts := ics.Parts.Clone()
	r.time("nbody.density_ms", "ms", r.slice, func() error {
		if len(solver.Density(parts)) == 0 {
			return fmt.Errorf("empty density grid")
		}
		return nil
	})
	r.time("nbody.step_ms", "ms", r.slice, func() error { return solver.Step(parts, rc.Astart, 0.01) })

	final := p1.Run.FinalSnapshot()
	r.time("halo.fof_ms", "ms", r.slice, func() error {
		_, err := halo.FindHalos(final.Parts, final.A, final.Box, rc.FoF)
		return err
	})
	var forest *mergertree.Forest
	r.time("mergertree.build_ms", "ms", r.slice, func() error {
		var err error
		forest, err = mergertree.Build(p2.Catalogs, mergertree.DefaultParams())
		return err
	})
	r.time("galics.run_ms", "ms", r.slice, func() error {
		_, err := galics.Run(forest, rc.Cosmo, galics.DefaultParams())
		return err
	})
	return nil
}

// simgridRungs: the event kernel alone, then a few suites timed part by
// part. The parts are the suite, so they add up to it.
func (r *rungs) simgridRungs(seed int64) error {
	const events = 100000
	kernel, _ := r.timeErr(r.slice, func() error {
		sim := simgrid.NewSim()
		for i := 0; i < events; i++ {
			if err := sim.At(float64(i%1000), func() {}); err != nil {
				return err
			}
		}
		if fired := sim.Run(); fired != events {
			return fmt.Errorf("sim fired %d of %d events", fired, events)
		}
		return nil
	})
	r.set("simgrid.sim_events_per_s", events/kernel.Seconds(), "1/s")

	if seed == 0 {
		seed = 1
	}
	parts := make(map[string][]float64)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const suites = 3
	for i := 0; i < suites; i++ {
		run, err := runSuite(seed, nil, "")
		if r.tally.op(err) != nil {
			return err
		}
		for name, v := range run.PartMS {
			parts[name] = append(parts[name], v)
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.set("simgrid.allocs_per_suite", float64(ms1.Mallocs-ms0.Mallocs)/suites, "count")
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "simgrid." + name + "_abl_ms"
		if name == "experiment" {
			metric = "simgrid.experiment_ms"
		}
		r.set(metric, median(parts[name]), "ms")
	}
	return nil
}

// serviceRungs: layers no workload drives yet — the data plane, the batch
// system — and the cost of publishing one span, the unit of the program's
// own tracing.
func (r *rungs) serviceRungs() error {
	near, far := dataman.NewStore("near"), dataman.NewStore("far")
	nearSrv, farSrv := rpc.NewServer(), rpc.NewServer()
	nearSrv.Register(dataman.ObjectName, near.Handler())
	farSrv.Register(dataman.ObjectName, far.Handler())
	defer nearSrv.Close()
	defer farSrv.Close()
	nearAddr, err := rpc.ServeLocal(fmt.Sprintf("bench-store-%d", os.Getpid()), nearSrv)
	if err != nil {
		return err
	}
	farAddr, err := farSrv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	catalog := dataman.NewCatalog()
	for node, addr := range map[string]string{"near": nearAddr, "far": farAddr} {
		if err := catalog.AddNode(node, addr); err != nil {
			return err
		}
	}
	if err := catalog.Put("small", "near", dataman.Persistent, make([]byte, 4<<10)); err != nil {
		return err
	}
	if err := catalog.Put("big", "far", dataman.Persistent, make([]byte, payloadInSize)); err != nil {
		return err
	}
	fetch := func(id string, size int) func() error {
		return func() error {
			it, err := catalog.Fetch(id)
			if err == nil && len(it.Data) != size {
				err = fmt.Errorf("fetched %d bytes of %s, want %d", len(it.Data), id, size)
			}
			return err
		}
	}
	r.time("dataman.fetch_local_us", "us", r.slice, fetch("small", 4<<10))
	r.time("dataman.fetch_remote_ms", "ms", 2*r.slice, fetch("big", payloadInSize))

	sys, err := batch.New(batch.Config{TotalNodes: 1})
	if err != nil {
		return err
	}
	defer sys.Close()
	r.time("batch.submit_wait_us", "us", r.slice, func() error {
		job, err := sys.Submit("empty", 1, time.Minute, func() error { return nil })
		if err != nil {
			return err
		}
		return sys.Wait(job)
	})

	bus := logsvc.New(1 << 12)
	now := time.Now().UnixNano()
	r.time("logsvc.publish_span_us", "us", r.slice, func() error {
		bus.PublishSpan(logsvc.Span{RequestID: "r", Component: "bench", Kind: logsvc.KindSolve, Service: noopService, StartNanos: now, EndNanos: now + 1})
		return nil
	})
	return nil
}
