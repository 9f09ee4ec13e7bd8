// Command experiment regenerates the paper's evaluation (§6) at full scale
// with the discrete-event simulator: the Figure 5 distribution and per-SeD
// execution times, the Figure 6 finding-time and latency series, the §6.2
// totals, and — with -ablation — the ablations of README.md's index.
//
//	experiment                           # everything, round-robin (the paper's run)
//	experiment -fig5 -scheduler poweraware
//	experiment -forecast -scheduler forecastaware   # CoRI monitors on every SeD
//	experiment -ablation A1              # round-robin vs the plug-in schedulers
//	experiment -ablation A5,A13          # several ablations, in index order
//	experiment -ablation all             # A1, A4 and A5–A13
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/scheduler"
	"repro/internal/simgrid"
)

var (
	policyName = flag.String("scheduler", "roundrobin", "policy: roundrobin, random, mct, poweraware, forecastaware, contentionaware")
	requests   = flag.Int("requests", 100, "phase-2 sub-simulations")
	seed       = flag.Int64("seed", 1, "workload seed")
	fig5       = flag.Bool("fig5", false, "print the Figure 5 distribution")
	fig6       = flag.Bool("fig6", false, "print the Figure 6 series")
	totals     = flag.Bool("totals", false, "print the §6.2 totals")
	ablationID = flag.String("ablation", "", "run ablations instead of the figures: all, or a comma-separated list of A1, A4, A5 … A13 (README.md's index)")
	batch      = flag.Bool("batch", false, "route solves through OAR-style reservations (A3)")
	grantS     = flag.Float64("batch-grant", 30, "reservation grant delay, seconds")
	batchWall  = flag.Float64("batch-wall", 7200, "fixed reservation walltime, seconds; overruns are killed and requeued (0 = unbounded)")
	batchFc    = flag.Bool("batch-forecast", false, "size each reservation's walltime from the SeD's CoRI forecast (implies -batch and -forecast)")
	arrivalGap = flag.Float64("arrival-gap", 0, "seconds between phase-2 submissions (0 = the paper's burst)")
	forecast   = flag.Bool("forecast", false, "attach a CoRI monitor to every SeD (history for forecastaware/contentionaware)")
)

// The trained ablations run rounds campaigns per arm (rounds-1 train, the
// last measures); A7's joining SeD needs a cluster sibling to gossip from.
const (
	rounds  = 2
	joinSeD = "Nancy2"
)

// campaign is the paper's campaign at the chosen size, seed and arrival gap,
// the base every ablation arm starts from.
func campaign() simgrid.ExperimentConfig {
	cfg := simgrid.DefaultExperiment(nil)
	cfg.NRequests = *requests
	cfg.Seed = *seed
	cfg.ArrivalGapS = *arrivalGap
	return cfg
}

// withGrants adds -batch-grant and -batch-wall, which A5 and A6 read.
func withGrants() simgrid.ExperimentConfig {
	cfg := campaign()
	cfg.BatchGrantS = *grantS
	cfg.BatchFixedWallS = *batchWall
	return cfg
}

// run simulates one campaign under the named policy with every batch and
// forecasting flag applied.
func run(name string) (*simgrid.ExperimentResult, string) {
	pol, err := scheduler.ByName(name, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg := withGrants()
	cfg.Policy = pol
	cfg.BatchMode = *batch || *batchFc // forecast-sized walltimes need reservations on
	cfg.BatchForecast = *batchFc
	cfg.Forecast = *forecast || *batchFc || name == "forecastaware" || name == "contentionaware"
	begin := time.Now()
	res, err := simgrid.RunExperiment(cfg)
	return res, stop(begin, err)
}

// stop ends a simulation. Every figure is virtual time; each summary line
// ends with the real time the simulation took since begin — what the
// repository benchmark's sim_suite workload measures, part by part.
func stop(begin time.Time, err error) string {
	if err != nil {
		log.Fatal(err)
	}
	return fmt.Sprintf("simulated in %s", time.Since(begin).Round(10*time.Microsecond))
}

// ablation is one row of README.md's ablation index this command runs.
type ablation struct {
	id  string
	run func(w io.Writer)
}

// ablations is the -ablation table, in index order.
var ablations = []ablation{
	{"A1", compare},
	{"A4", sweep},
	{"A5", forecastAblation},
	{"A6", deployAblation},
	{"A7", warmStartAblation},
	{"A8", replanAblation},
	{"A9", backfillAblation},
	{"A10", failureAblation},
	{"A11", workflowAblation},
	{"A12", federationAblation},
	{"A13", dataAblation},
}

// selectAblations parses an -ablation value, "all" or a comma-separated
// list of ids, into table entries in index order without duplicates. An
// empty or unknown id is an error naming the valid ones.
func selectAblations(spec string) ([]ablation, error) {
	if strings.TrimSpace(spec) == "all" {
		return ablations, nil
	}
	valid := make(map[string]bool)
	var ids []string
	for _, a := range ablations {
		valid[a.id] = true
		ids = append(ids, a.id)
	}
	want := make(map[string]bool)
	for _, id := range strings.Split(spec, ",") {
		if id = strings.TrimSpace(id); !valid[id] {
			return nil, fmt.Errorf("unknown ablation %q: want all or a comma-separated list of %s", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var out []ablation
	for _, a := range ablations {
		if want[a.id] {
			out = append(out, a)
		}
	}
	return out, nil
}

func main() {
	flag.Parse()
	ablationSet := false
	flag.Visit(func(f *flag.Flag) { ablationSet = ablationSet || f.Name == "ablation" })
	if ablationSet {
		selected, err := selectAblations(*ablationID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			os.Exit(2)
		}
		for _, a := range selected {
			a.run(os.Stdout)
		}
		return
	}

	all := !*fig5 && !*fig6 && !*totals
	res, wall := run(*policyName)
	if all || *fig5 {
		res.PrintGantt(os.Stdout, 96)
		fmt.Println()
		res.PrintFig5(os.Stdout)
		fmt.Println()
	}
	if all || *fig6 {
		res.PrintFig6(os.Stdout)
		fmt.Println()
	}
	if all || *totals {
		res.PrintTotals(os.Stdout)
		fmt.Printf("  %s of real time\n", wall)
	}
}

func compare(w io.Writer) {
	fmt.Fprintln(w, "Ablation A1 — default equal distribution vs the plug-in scheduler (paper §8):")
	for _, name := range []string{"roundrobin", "random", "mct", "poweraware", "forecastaware", "contentionaware"} {
		res, wall := run(name)
		fmt.Fprintf(w, "  %-15s makespan %s  (%.2fh)  speedup %.1fx  (%s)\n",
			name, simgrid.Hours(res.TotalS), res.MakespanHours(), res.SequentialS/res.TotalS, wall)
	}
	rr, _ := run("roundrobin")
	pa, _ := run("poweraware")
	fmt.Fprintf(w, "  plug-in scheduler saves %s (%.1f%%)\n",
		simgrid.Hours(rr.TotalS-pa.TotalS), 100*(rr.TotalS-pa.TotalS)/rr.TotalS)
}

func sweep(w io.Writer) {
	mk := func() scheduler.Policy {
		pol, err := scheduler.ByName(*policyName, *seed)
		if err != nil {
			log.Fatal(err)
		}
		return pol
	}
	fmt.Fprintf(w, "Sweep A4a — makespan vs SeD count (%d requests, policy=%s):\n", *requests, *policyName)
	begin := time.Now()
	points, err := simgrid.SweepSeDs(mk, []int{1, 2, 3, 4}, *requests)
	fmt.Fprintf(w, "  SeDs  makespan_h  speedup  mean_latency_h   (%s)\n", stop(begin, err))
	for _, p := range points {
		fmt.Fprintf(w, "  %4d  %10.2f  %7.1f  %14.2f\n", p.SeDs, p.MakespanHours, p.Speedup, p.MeanLatencyMS/3.6e6)
	}
	fmt.Fprintf(w, "\nSweep A4b — makespan vs campaign size (11 SeDs, policy=%s):\n", *policyName)
	begin = time.Now()
	points, err = simgrid.SweepRequests(mk, []int{25, 50, 100, 200, 400})
	fmt.Fprintf(w, "  reqs  makespan_h  speedup  mean_latency_h   (%s)\n", stop(begin, err))
	for _, p := range points {
		fmt.Fprintf(w, "  %4d  %10.2f  %7.1f  %14.2f\n", p.Requests, p.MakespanHours, p.Speedup, p.MeanLatencyMS/3.6e6)
	}
}

func forecastAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A5 — CoRI forecasting vs static scheduling (paper §8 future work):")
	begin := time.Now()
	res, err := simgrid.RunForecastAblation(func() simgrid.ExperimentConfig {
		cfg := withGrants()
		cfg.BatchMode = *batch
		return cfg
	}, rounds)
	wall := stop(begin, err)
	row := func(name string, r *simgrid.ExperimentResult) {
		fmt.Fprintf(w, "  %-20s makespan %s  (%.2fh)  speedup %.1fx\n",
			name, simgrid.Hours(r.TotalS), r.MakespanHours(), r.SequentialS/r.TotalS)
	}
	fmt.Fprintln(w, " honest platform (advertised power = delivered power):")
	row("roundrobin", res.RoundRobin)
	row("poweraware", res.PowerAware)
	row("forecast (cold)", res.ForecastCold)
	row("forecast (trained)", res.ForecastTrained)
	row("contention (trained)", res.Contention)
	fmt.Fprintf(w, "  → plug-in scheduling saves %.1f%% over round-robin (mostly the static A1 effect)\n",
		res.ImprovementPct())
	fmt.Fprintln(w, " miscalibrated platform (Nancy delivers 35%, Sophia1 50% of advertised):")
	row("roundrobin", res.SkewRoundRobin)
	row("poweraware (misled)", res.SkewPowerAware)
	row("forecast (trained)", res.SkewTrained)
	fmt.Fprintf(w, "  → measuring speed instead of trusting it saves %.1f%% over the misled static plug-in (%s)\n",
		res.ForecastGainPct(), wall)
}

func deployAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A6 — static planning + fixed grants vs measured-power planning + forecast-sized reservations:")
	begin := time.Now()
	res, err := simgrid.RunDeployAblation(withGrants, rounds)
	wall := stop(begin, err)
	row := func(name string, r *simgrid.ExperimentResult) {
		fmt.Fprintf(w, "  %-28s makespan %s (%.2fh)  kills %3d  requeues %3d  idle pad %6.1fh  wasted %6.1fh\n",
			name, simgrid.Hours(r.TotalS), r.MakespanHours(),
			r.Batch.OverrunKills, r.Batch.Requeues,
			r.Batch.IdlePadS/3600, r.Batch.WastedS/3600)
	}
	row("honest / static plan", res.Honest)
	fmt.Fprintln(w, " miscalibrated platform (Nancy delivers 35%, Sophia1 50% of advertised):")
	row("static plan + fixed grants", res.Static)
	row("measured plan + forecasts", res.Trained)
	fmt.Fprintf(w, "  → closing the forecast loop saves %.1f%% makespan and %.1f%% overrun+pad cost (%s)\n",
		res.MakespanGainPct(), res.ReservationGainPct(), wall)
	if len(res.Changes) > 0 {
		fmt.Fprintf(w, "  replanned placements (after %d training round(s)):\n", res.Rounds-1)
		for _, c := range res.Changes {
			fmt.Fprintf(w, "    %s\n", c)
		}
	}
}

func warmStartAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A7 — cold vs warm-started SeD join on a characterized cluster:")
	begin := time.Now()
	res, err := simgrid.RunWarmStartAblation(campaign, joinSeD, rounds)
	wall := stop(begin, err)
	fmt.Fprintf(w, " %s joins cluster %q after %d training round(s); prior services:\n", res.JoinSeD, res.Cluster, res.Rounds-1)
	for _, p := range res.Prior {
		fmt.Fprintf(w, "   %-12s %d merged samples, confidence %.2f, delivered %.1f GFlops\n",
			p.Service, p.Samples, p.Confidence, p.DeliveredGFlops())
	}
	row := func(name string, r *simgrid.ExperimentResult, j simgrid.JoinStats) {
		fmt.Fprintf(w, "  %-12s makespan %s (%.2fh)  join solves %3d  mean mispredict %5.1f%%  solves before trusted forecast %d\n",
			name, simgrid.Hours(r.TotalS), r.MakespanHours(), j.Solves, j.MeanMispredictPct, j.SolvesToForecast)
	}
	row("cold join", res.Cold, res.ColdJoin)
	row("warm join", res.Warm, res.WarmJoin)
	fmt.Fprintf(w, "  → the gossiped prior removes %.1f points of forecast error and saves %.1f%% makespan (%s)\n",
		res.MispredictDeltaPts(), res.MakespanDeltaPct(), wall)
}

func replanAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A8 — frozen static plan vs live replanning+migration vs offline replan restart:")
	begin := time.Now()
	res, err := simgrid.RunReplanAblation(campaign, simgrid.ReplanAblationConfig{Rounds: rounds})
	wall := stop(begin, err)
	c := res.Config
	fmt.Fprintf(w, " drifting/miscalibrated platform: CanonicalSkew, plus %s drifting to %.0f%% at %s;\n",
		c.DriftSeD, 100*c.DriftFactor, simgrid.Hours(c.DriftAtS))
	fmt.Fprintf(w, " %s misdeployed under %s at bring-up; live arm replans every %s\n",
		c.MisplacedSeD, c.MisplacedParent, simgrid.Hours(c.ReplanIntervalS))
	row := func(name string, r *simgrid.ExperimentResult) {
		fmt.Fprintf(w, "  %-26s makespan %s (%.2fh)\n", name, simgrid.Hours(r.TotalS), r.MakespanHours())
	}
	row("static plan (frozen)", res.Static)
	row("live replanning", res.Live)
	row("offline replan (restart)", res.Offline)
	fmt.Fprintf(w, "  → live replanning saves %.1f%% makespan with no restart — %.1f%% of the offline-replan win (%.1f%%) (%s)\n",
		res.LiveGainPct(), res.RecoveryPct(), res.OfflineGainPct(), wall)
	for _, ev := range res.Live.Replans {
		if ev.PowerUpdates == 0 && len(ev.Moved) == 0 {
			continue
		}
		fmt.Fprintf(w, "  replan @%6s: %d power update(s), migrated %v\n",
			simgrid.Hours(ev.AtS), ev.PowerUpdates, ev.Moved)
	}
	if ok, why := res.FirstPostMoveForecastTrusted(); ok {
		fmt.Fprintln(w, "  every migrated SeD kept a trusted model through its move (snapshot travels with the reparent)")
	} else {
		fmt.Fprintf(w, "  WARNING: %s\n", why)
	}
	if len(res.Changes) > 0 {
		fmt.Fprintf(w, "  offline replan placements (after %d training round(s)):\n", res.Config.Rounds-1)
		for _, ch := range res.Changes {
			fmt.Fprintf(w, "    %s\n", ch)
		}
	}
}

func backfillAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A9 — queue-wait cost of walltime sizing under conservative backfilling:")
	begin := time.Now()
	res, err := simgrid.RunBackfillAblation(campaign, simgrid.BackfillAblationConfig{Rounds: rounds})
	wall := stop(begin, err)
	fmt.Fprintf(w, " %d jobs from the measured CanonicalSkew campaign packed onto a %d-node cluster\n", res.Jobs, res.Nodes)
	row := func(a simgrid.BackfillArm) {
		fmt.Fprintf(w, "  %-24s mean wait %s  max wait %s  makespan %s  sized walltimes %3d  backfilled %3d (%d of them sized)  kills %d\n",
			a.Name, simgrid.Hours(a.MeanWaitS), simgrid.Hours(a.MaxWaitS), simgrid.Hours(a.MakespanS),
			a.ForecastSized, a.Backfilled, a.SizedBackfills, a.OverrunKills)
	}
	row(res.NoBackfill)
	row(res.FixedGrant)
	row(res.Forecast)
	fmt.Fprintf(w, "  → forecast-sized walltimes cut mean queue wait %.1f%% vs fixed-grant backfill (%.1f%% vs no backfill) and makespan %.1f%% (%s)\n",
		res.WaitGainPct(), res.BackfillValuePct(), res.MakespanGainPct(), wall)
}

func failureAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A10 — failure injection: self-healing hierarchy vs fragile hierarchy:")
	begin := time.Now()
	res, err := simgrid.RunFailureAblation(campaign, simgrid.FailureAblationConfig{})
	wall := stop(begin, err)
	fmt.Fprintln(w, " canonical schedule: crash+restart, partition+heal, in-flight losses, one permanent node death, one tail outage")
	row := func(name string, r *simgrid.ExperimentResult) {
		fmt.Fprintf(w, "  %-22s makespan %s (%.2fh)  solves lost %2d  requeued %2d\n",
			name, simgrid.Hours(r.TotalS), r.MakespanHours(), r.SolvesLost, r.Requeued)
	}
	row("no failures", res.Healthy)
	row("failures, self-healing", res.Healing)
	row("failures, fragile", res.Fragile)
	fmt.Fprintf(w, "  → self-healing saves %.1f%% makespan and %d solves vs the fragile hierarchy, costing %.1f%% over the failure-free run (%s)\n",
		res.MakespanGainPct(), res.SolvesSaved(), res.HealingOverheadPct(), wall)
	if ok, why := res.RestartsWarm(); ok {
		fmt.Fprintln(w, "  every healed restart rejoined with a trusted forecast model (snapshot warm restore)")
	} else {
		fmt.Fprintf(w, "  WARNING: %s\n", why)
	}
	for _, e := range res.Healing.FailureLog {
		fmt.Fprintf(w, "  %8s  %-10s %-12s %s\n", simgrid.Hours(e.AtS), e.Node, e.Kind, e.Detail)
	}
}

func workflowAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A11 — zoom campaigns as workflow DAGs: topo round-robin vs forecast critical-path:")
	begin := time.Now()
	res, err := simgrid.RunWorkflowAblation(simgrid.WorkflowAblationConfig{})
	wall := stop(begin, err)
	res.Print(w)
	fmt.Fprintf(w, "  → pricing stages from measured models saves %.1f%% of the trained campaign under CanonicalSkew (%s)\n",
		res.SkewGainPct(), wall)
}

func federationAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A12 — multi-MA federation: single Master Agent vs federated mesh:")
	begin := time.Now()
	res, err := simgrid.RunFederationAblation(simgrid.FederationAblationConfig{})
	wall := stop(begin, err)
	cfg := res.Federated.Config
	fmt.Fprintf(w, " stream: %d requests over %d services at %.0f/s; finding costs %.0fms serial per MA, misses %.0fms, forward RTT %.0fms, %.0f%% of services foreign\n",
		cfg.Requests, cfg.Services, cfg.ArrivalRateHz, cfg.SubmitCostMS, cfg.MissCostMS, cfg.ForwardRTTMS, 100*cfg.ForeignFrac)
	row := func(name string, r *simgrid.FederationResult) {
		fmt.Fprintf(w, "  %-18s throughput %6.1f/s  p99 submit latency %8.3fs  mean %7.3fs  span %6.1fs  forwards %d\n",
			name, r.ThroughputPerSec(), r.P99LatencyS(), r.MeanLatencyS(), r.TotalS, r.Forwards)
	}
	row("1 MA", res.Single)
	row(fmt.Sprintf("%d federated MAs", cfg.MAs), res.Federated)
	fmt.Fprintf(w, "  → federation lifts saturation throughput %.2fx and cuts p99 submit latency %.1fx under the same stream (%s)\n",
		res.ThroughputGainX(), res.P99GainX(), wall)
}

func dataAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation A13 — data-aware scheduling: transfer-priced vs data-blind placement:")
	begin := time.Now()
	res := simgrid.RunDataAblation(simgrid.DataAblationConfig{Seed: *seed})
	wall := stop(begin, nil)
	res.Print(w)
	fmt.Fprintf(w, "  → pricing input transfers from the trained pair models saves %.1f%% makespan and %.1f%% of the bytes moved (%s)\n",
		res.MakespanGainPct(), res.BytesSavedPct(), wall)
}
