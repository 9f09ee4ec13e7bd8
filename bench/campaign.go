package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/ramses"
	"repro/internal/services"
	"repro/internal/workflow"
)

// zoomsPerCampaign and zoomLevels shape the campaign: one survey, then this
// many zoom re-simulations with this many nested boxes, then a local report.
const (
	zoomsPerCampaign = 4
	zoomLevels       = 2
)

// campaignConfig is the paper's two-phase campaign at laptop scale. The
// seed is the white-noise seed RAMSES draws its initial conditions from.
func campaignConfig(seed int64) ramses.Config {
	cfg := ramses.DefaultConfig()
	cfg.NPart = 16
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 4
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
	cfg.Seed = seed
	return cfg
}

// campaignStack is the paper platform offering the two RAMSES services.
type campaignStack struct {
	liveStack
	zoom1, zoom2 *probe
	scratch      string
}

func (s *campaignStack) close() {
	if s == nil {
		return
	}
	s.liveStack.close()
	os.RemoveAll(s.scratch)
}

func newCampaignStack(e *env) (*campaignStack, error) {
	scratch, err := scratchDir(e.cfg.OutDir)
	if err != nil {
		return nil, err
	}
	s := &campaignStack{zoom1: &probe{tr: e.tr}, zoom2: &probe{tr: e.tr}, scratch: scratch}
	dep, err := deployPaper([]diet.ServiceSpec{
		{Desc: services.Zoom1Desc(), Solve: s.zoom1.wrap(services.Zoom1Name, services.SolveZoom1(scratch))},
		{Desc: services.Zoom2Desc(), Solve: s.zoom2.wrap(services.Zoom2Name, services.SolveZoom2(scratch))},
	}, e.events())
	if err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	client, err := dep.Client()
	if err != nil {
		dep.Close()
		os.RemoveAll(scratch)
		return nil, err
	}
	s.liveStack = liveStack{dep: dep, client: client}
	return s, nil
}

// tracedCaller is the workflow.Caller of a traced campaign: the client's
// own public methods with a span around each.
type tracedCaller struct {
	client   *diet.Client
	tr       *tracer
	req      string
	campaign int      // span ID of the campaign
	nodes    sync.Map // *diet.Profile → span ID of the node that built it
}

func (c *tracedCaller) Call(p *diet.Profile, opts ...diet.CallOption) (*diet.CallInfo, error) {
	t0 := time.Now()
	info, err := c.client.Call(p, opts...)
	if err == nil {
		parent := c.campaign
		if id, ok := c.nodes.Load(p); ok {
			parent = id.(int)
		}
		c.tr.add(span{Parent: parent, Name: "call", Req: c.req, Link: info.RequestID, Detail: info.Server, Start: t0, End: time.Now()})
	}
	return info, err
}

func (c *tracedCaller) FindServers(service string, work float64) (*diet.SubmitReply, time.Duration, error) {
	t0 := time.Now()
	reply, d, err := c.client.FindServers(service, work)
	c.tr.add(span{Parent: c.campaign, Name: "price", Req: c.req, Detail: service, Start: t0, End: time.Now()})
	return reply, d, err
}

// runCampaign runs one campaign through workflow.DietRunner and checks its
// outputs: the survey catalogue parses, and every zoom returned a non-empty
// tarball with error code 0. A survey that finds no halo zooms into the box
// centre, as BenchmarkFig3 does.
func (s *campaignStack) runCampaign(e *env, cfg ramses.Config, n int) (*workflow.RunReport, time.Duration, error) {
	req := fmt.Sprintf("zoom_campaign-%d", n)
	var caller workflow.Caller = s.client
	var traced *tracedCaller
	if e.tr != nil {
		traced = &tracedCaller{client: s.client, tr: e.tr, req: req, campaign: e.tr.newID()}
		caller = traced
	}
	// node wraps a TaskSpec so that a traced run records a "node" span from
	// the moment the runner asks for the profile to the moment the output is
	// consumed, and the call made in between finds its parent.
	node := func(id string, spec workflow.TaskSpec) workflow.TaskSpec {
		if traced == nil {
			return spec
		}
		var start time.Time
		var spanID int
		profile, consume := spec.Profile, spec.Consume
		spec.Profile = func(ctx *workflow.TaskContext) (*diet.Profile, error) {
			start, spanID = time.Now(), e.tr.newID()
			p, err := profile(ctx)
			if err == nil {
				traced.nodes.Store(p, spanID)
			}
			return p, err
		}
		spec.Consume = func(ctx *workflow.TaskContext, p *diet.Profile, info *diet.CallInfo) error {
			err := consume(ctx, p, info)
			e.tr.add(span{ID: spanID, Parent: traced.campaign, Name: "node", Req: req, Detail: id, Start: start, End: time.Now()})
			return err
		}
		return spec
	}

	dag := workflow.New("zoomCampaign")
	specs := make(map[string]workflow.TaskSpec)
	if err := dag.Add("survey", services.Zoom1Name, nil, nil); err != nil {
		return nil, 0, err
	}
	specs["survey"] = node("survey", workflow.TaskSpec{
		Profile: func(*workflow.TaskContext) (*diet.Profile, error) { return services.NewZoom1Profile(cfg) },
		Consume: func(ctx *workflow.TaskContext, p *diet.Profile, _ *diet.CallInfo) error {
			catalog, err := services.Zoom1Result(p)
			if err != nil {
				return err
			}
			ctx.SetOutput(catalog)
			return nil
		},
	})
	var zoomIDs []string
	tarBytes := make([]int, zoomsPerCampaign)
	for i := 0; i < zoomsPerCampaign; i++ {
		i := i
		id := fmt.Sprintf("zoom_%d", i)
		zoomIDs = append(zoomIDs, id)
		if err := dag.Add(id, services.Zoom2Name, []string{"survey"}, nil); err != nil {
			return nil, 0, err
		}
		specs[id] = node(id, workflow.TaskSpec{
			Profile: func(ctx *workflow.TaskContext) (*diet.Profile, error) {
				v, _ := ctx.DepOutput("survey")
				centre := [3]float64{0.5, 0.5, 0.5}
				if catalog := v.(*halo.Catalog); len(catalog.Halos) > 0 {
					centre = catalog.Halos[i%len(catalog.Halos)].Pos
				}
				cell := func(x float64) int { return int(x * float64(cfg.NPart)) }
				return services.NewZoom2Profile(cfg, cell(centre[0]), cell(centre[1]), cell(centre[2]), zoomLevels)
			},
			Consume: func(_ *workflow.TaskContext, p *diet.Profile, _ *diet.CallInfo) error {
				_, tarball, err := services.Zoom2Result(p)
				if err != nil {
					return err
				}
				if len(tarball) == 0 {
					return fmt.Errorf("%s returned an empty tarball", id)
				}
				tarBytes[i] = len(tarball)
				return nil
			},
		})
	}
	if err := dag.Add("report", "localReport", zoomIDs, func(ctx *workflow.TaskContext) error {
		total := 0
		for _, b := range tarBytes {
			total += b
		}
		ctx.SetOutput(total)
		return nil
	}); err != nil {
		return nil, 0, err
	}

	runner := &workflow.DietRunner{
		Client:      caller,
		MaxParallel: e.callers(satCallers),
		ServiceWork: map[string]float64{services.Zoom1Name: 400, services.Zoom2Name: 2500},
		Events:      e.events(),
	}
	t0 := time.Now()
	rep, err := runner.Run(dag, specs)
	wall := time.Since(t0)
	if traced != nil {
		e.tr.add(span{ID: traced.campaign, Name: "campaign", Req: req, Start: t0, End: t0.Add(wall)})
	}
	if err != nil {
		return nil, wall, err
	}
	if rep.Err != nil {
		return rep, wall, rep.Err
	}
	return rep, wall, nil
}

// runZoomCampaign measures campaigns run one after another, each with up to
// satCallers nodes in flight. The first campaign of a platform is the warm-up:
// it is the one that prices stages from advertised powers; the measured
// ones price from the CoRI models it trained.
func runZoomCampaign(e *env) (*outcome, error) {
	o := &outcome{}
	cfg := campaignConfig(e.cfg.Seed)
	build := func() (*campaignStack, error) {
		s, err := newCampaignStack(e)
		if err != nil {
			return nil, err
		}
		_, _, err = s.runCampaign(e, cfg, -1)
		e.tally.op(err)
		return s, nil
	}
	stack, setup, err := repeatSetup(e.setups(3), build, (*campaignStack).close)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	o.SetupS = setup

	// The campaign after the warm-up one is where heap_mb is read.
	const heapOps = 1
	campaigns := 0
	campaign := func() (time.Duration, error) {
		campaigns++
		_, wall, err := stack.runCampaign(e, cfg, campaigns)
		return wall, e.tally.op(err)
	}
	o.heapAfter(e, heapOps, func() error { _, err := campaign(); return err })
	var wallMS []float64
	o.measure(func() {
		start := time.Now()
		deadline := start.Add(e.phase(1))
		for o.Ops == 0 || time.Now().Before(deadline) {
			wall, err := campaign()
			o.Ops++
			if err != nil {
				continue
			}
			wallMS = append(wallMS, float64(wall)/1e6)
		}
	})
	// A block of campaigns would hold two or three of them: the run is one
	// block.
	o.Blocks = chunkBlocks(wallMS, 1)
	o.notef("%d campaigns of 1 survey + %d zooms (%d levels), NPart=%d, up to %d nodes in flight; zoom1 %.1f ms, zoom2 %.1f ms per solve",
		o.Ops, zoomsPerCampaign, zoomLevels, cfg.NPart, e.callers(satCallers), stack.zoom1.meanMS(), stack.zoom2.meanMS())
	return o, nil
}

// scratchDir makes a private directory under the output directory, inside
// the checkout, for the files the RAMSES services write.
func scratchDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "scratch-")
}
