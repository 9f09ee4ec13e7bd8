package workflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cori"
	"repro/internal/diet"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// This file routes workflow DAGs through the middleware — the MADAG role the
// paper's conclusion names as DIET's next step. Each node's service becomes
// a diet.Client.Call with a per-node WithWork hint, so a failed server rides
// the client's existing ranked-failover (kill-and-requeue) path; before any
// solve launches, the runner prices every stage from the estimate vectors
// the finding phase returns (the SeDs' CoRI forecasts) and dispatches ready
// nodes critical-path-first under the maxParallel cap.

// Caller is the slice of diet.Client the runner needs; tests may substitute
// a fake platform.
type Caller interface {
	// Call performs one GridRPC call (find, solve, failover).
	Call(p *diet.Profile, opts ...diet.CallOption) (*diet.CallInfo, error)
	// FindServers performs the finding phase alone, returning the ranked
	// servers with their estimate vectors.
	FindServers(service string, workGFlops float64) (*diet.SubmitReply, time.Duration, error)
}

// TaskSpec tells the runner how to solve one DAG node through DIET.
type TaskSpec struct {
	// Profile builds the call's profile from the node's dependency outputs.
	Profile func(ctx *TaskContext) (*diet.Profile, error)
	// Consume extracts the node's output from the solved profile (via
	// ctx.SetOutput). When nil, the solved profile itself becomes the
	// node's output for its dependents.
	Consume func(ctx *TaskContext, p *diet.Profile, info *diet.CallInfo) error
}

// DietRunner executes workflow DAGs through a DIET platform.
type DietRunner struct {
	Client Caller
	// MaxParallel caps concurrently in-flight nodes (0 = unlimited).
	MaxParallel int
	// ServiceWork maps service name → work hint in GFlops.
	ServiceWork map[string]float64
	// Retries re-runs a node's whole call (fresh finding phase included)
	// after the ranked-failover walk inside Call has exhausted every
	// offered server — the workflow-level requeue. A solve that failed by
	// itself (not rpc.Retryable) is not re-run.
	Retries int
	// Events optionally receives a workflow span per node and per run,
	// alongside the submit/solve/complete spans the call path emits — the
	// Gantt rows dietmon renders.
	Events diet.EventSink
	// Metrics optionally receives the diet_workflow_* families.
	Metrics *metrics.Registry
}

// RunReport is a Report plus the runner's scheduling context.
type RunReport struct {
	*Report
	RunID string
	// Priorities holds each node's forecast-weighted longest downstream
	// chain in seconds — the launch order among simultaneously ready nodes.
	Priorities map[string]float64
	// PriceS is the predicted duration each DIET node was priced at.
	PriceS map[string]float64
	// ForecastPriced reports, per service, whether the price came from a
	// trusted CoRI model (true) or fell back to advertised power (false).
	ForecastPriced map[string]bool
	// Calls holds the CallInfo of every completed DIET node.
	Calls map[string]*diet.CallInfo
	// MakespanS is the wall-clock length of the whole execution.
	MakespanS float64
}

// ForecastPricedCount counts the services priced from a trusted model.
func (r *RunReport) ForecastPricedCount() int {
	n := 0
	for _, byModel := range r.ForecastPriced {
		if byModel {
			n++
		}
	}
	return n
}

// runSeq distinguishes runs within one process for span identities.
var runSeq atomic.Int64

// publishSpan sends one workflow span when a sink is set.
func (r *DietRunner) publishSpan(requestID, service, detail string, start, end time.Time) {
	if r.Events != nil {
		r.Events.Publish(logsvc.Event{
			RequestID: requestID, Component: "workflow", Kind: logsvc.KindWorkflow,
			Service: service, Detail: detail,
			StartNanos: start.UnixNano(), EndNanos: end.UnixNano(),
		})
	}
}

// Run executes the DAG through DIET: nodes named in specs are solved with
// Client.Call (per-node WithWork hints, ranked failover, optional
// workflow-level retries); nodes already bound with DAG.Bind run locally.
// Before anything launches, every DIET stage is priced from one finding
// round trip — the SeDs' CoRI forecasts when trusted, advertised power
// otherwise — and ready nodes launch in decreasing forecast-weighted
// critical-path order under MaxParallel.
func (r *DietRunner) Run(d *DAG, specs map[string]TaskSpec) (*RunReport, error) {
	if r.Client == nil {
		return nil, fmt.Errorf("workflow: DietRunner needs a Client")
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	for id := range specs {
		if _, ok := d.tasks[id]; !ok {
			return nil, fmt.Errorf("workflow: task spec for unknown node %q", id)
		}
	}
	for _, id := range order {
		if _, ok := specs[id]; !ok && d.tasks[id].action == nil {
			return nil, fmt.Errorf("workflow: node %q has neither a bound action nor a task spec", id)
		}
	}
	rep := &RunReport{
		RunID:          fmt.Sprintf("wf%d-%s", runSeq.Add(1), d.Name()),
		PriceS:         make(map[string]float64),
		ForecastPriced: make(map[string]bool),
		Calls:          make(map[string]*diet.CallInfo, len(specs)),
	}

	// Price every DIET stage with one finding round trip per service, then
	// weigh each node's longest downstream chain with the results.
	type pricing struct {
		ests    []scheduler.Estimate
		byModel bool
	}
	services := make(map[string]*pricing)
	for _, id := range order {
		if _, ok := specs[id]; !ok {
			continue
		}
		svc := d.tasks[id].def.Service
		pr, ok := services[svc]
		if !ok {
			// Pricing is advisory: a service nobody offers (or a transient
			// finding failure) prices at zero and fails — or recovers — as an
			// ordinary node-level call, skipping only its own dependents.
			pr = &pricing{}
			if reply, _, err := r.Client.FindServers(svc, r.ServiceWork[svc]); err == nil {
				pr.ests = reply.Estimates
			}
			services[svc] = pr
		}
		sec, byModel := cori.BestEstimateSeconds(pr.ests, r.ServiceWork[svc])
		rep.PriceS[id] = sec
		if byModel {
			pr.byModel = true
		}
	}
	for svc, pr := range services {
		rep.ForecastPriced[svc] = pr.byModel
	}
	rep.Priorities, err = d.CriticalPathSeconds(func(def NodeDef) float64 {
		return rep.PriceS[def.ID] // local nodes weigh nothing
	})
	if err != nil {
		return nil, err
	}

	var (
		mNodes    metrics.CounterVec
		mNodeSec  metrics.HistogramVec
		mPriced   metrics.CounterVec
		mRuns     metrics.CounterVec
		mMakespan metrics.GaugeVec
	)
	if r.Metrics != nil {
		mRuns = r.Metrics.NewCounter("diet_workflow_runs_total",
			"Workflow DAG executions started, by workflow name.", "workflow")
		mNodes = r.Metrics.NewCounter("diet_workflow_nodes_total",
			"Workflow nodes by terminal status (ok, failed, skipped).", "workflow", "status")
		mNodeSec = r.Metrics.NewHistogram("diet_workflow_node_seconds",
			"Per-node execution time, by service.",
			metrics.ExpBuckets(0.001, 4, 12), "service")
		mPriced = r.Metrics.NewCounter("diet_workflow_forecast_priced_total",
			"Stage pricings by source: a trusted CoRI model vs advertised power.", "pricing")
		mMakespan = r.Metrics.NewGauge("diet_workflow_makespan_seconds",
			"Makespan of the last completed run, by workflow name.", "workflow")
		mRuns.With(d.Name()).Inc()
		for _, byModel := range rep.ForecastPriced {
			if byModel {
				mPriced.With("model").Inc()
			} else {
				mPriced.With("power").Inc()
			}
		}
	}

	// Bind the DIET nodes; wrap already-bound local actions so every node
	// emits a workflow span and lands in the metrics. The binding happens on
	// a shallow copy so repeated Runs of one DAG never stack instrumentation.
	var callsMu sync.Mutex
	instrument := func(id, svc string, body Action) Action {
		return func(ctx *TaskContext) error {
			start := time.Now()
			err := body(ctx)
			end := time.Now()
			reqID := rep.RunID + "-" + id
			callsMu.Lock()
			info, called := rep.Calls[id]
			callsMu.Unlock()
			detail := "ok"
			if err != nil {
				detail = "failed: " + err.Error()
			} else if called {
				// Joining the call's own request ID threads the workflow
				// span into the same trace as its submit/solve/complete
				// spans, so dietmon shows the node inside its request.
				reqID = info.RequestID
				detail = fmt.Sprintf("node %s on %s, priority %.1fs", id, info.Server, rep.Priorities[id])
			} else {
				detail = fmt.Sprintf("local node %s", id)
			}
			r.publishSpan(reqID, svc, detail, start, end)
			if r.Metrics != nil {
				if err == nil {
					mNodes.With(d.Name(), "ok").Inc()
				} else {
					mNodes.With(d.Name(), "failed").Inc()
				}
				mNodeSec.With(svc).Observe(end.Sub(start).Seconds())
			}
			return err
		}
	}
	run := d.cloneShallow()
	for _, id := range order {
		t := run.tasks[id]
		spec, ok := specs[id]
		if !ok {
			t.action = instrument(id, t.def.Service, t.action)
			continue
		}
		id, svc, spec := id, t.def.Service, spec
		t.action = instrument(id, svc, func(ctx *TaskContext) error {
			p, err := spec.Profile(ctx)
			if err != nil {
				return fmt.Errorf("building profile for %q: %w", id, err)
			}
			work := r.ServiceWork[svc]
			var info *diet.CallInfo
			for attempt := 0; ; attempt++ {
				info, err = r.Client.Call(p, diet.WithWork(work))
				if err == nil || attempt >= r.Retries || !rpc.Retryable(err) {
					break
				}
			}
			if err != nil {
				return err
			}
			callsMu.Lock()
			rep.Calls[id] = info
			callsMu.Unlock()
			if spec.Consume != nil {
				return spec.Consume(ctx, p, info)
			}
			ctx.SetOutput(p)
			return nil
		})
	}

	start := time.Now()
	rep.Report = run.ExecutePrioritized(r.MaxParallel, rep.Priorities)
	end := time.Now()
	rep.MakespanS = end.Sub(start).Seconds()

	skipped := 0
	for _, res := range rep.Results {
		if res.Skipped {
			skipped++
		}
	}
	if r.Metrics != nil {
		for i := 0; i < skipped; i++ {
			mNodes.With(d.Name(), "skipped").Inc()
		}
		mMakespan.With(d.Name()).Set(rep.MakespanS)
	}
	r.publishSpan(rep.RunID, d.Name(),
		fmt.Sprintf("campaign %s: %d nodes, %d skipped, %d forecast-priced services, makespan %.3fs",
			d.Name(), len(order), skipped, rep.ForecastPricedCount(), rep.MakespanS),
		start, end)
	return rep, nil
}
