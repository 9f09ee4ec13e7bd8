// Command bench is this repository's benchmark: five workloads from one
// GridRPC call to a zoom campaign, four end-to-end metrics on each, and a
// per-layer ladder measured from outside the program by timing calls into
// each module's public functions. See README.md.
//
//	bench --workload noop_tcp --seed 1 --seconds 20 --trace 0   one run, one JSON line
//	bench -seed 1                                                every workload, both passes
//	bench -compare old.json new.json                             verdict per metric and workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads names every workload in the order a full run takes them.
var workloads = []struct {
	name string
	run  func(*env) (*outcome, error)
}{
	{"noop_tcp", noopCalls.run},
	{"payload_tcp", payloadCalls.run},
	{"gateway_http", runGateway},
	{"zoom_campaign", runZoomCampaign},
	{"sim_suite", runSimSuite},
}

func workloadByName(name string) func(*env) (*outcome, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run, printed as the last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pass runs one workload once and closes everything it opened. It returns
// the outcome, the environment (tally, spans) and how many goroutines were
// left once the platform was down, against the count before it came up.
func pass(cfg runConfig) (*outcome, *env, int, error) {
	run := workloadByName(cfg.Workload)
	if run == nil {
		return nil, nil, 0, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	before := runtime.NumGoroutine()
	e := newEnv(cfg)
	o, err := run(e)
	if err != nil {
		return nil, nil, 0, err
	}
	// Connection handlers notice the close a moment after Close returns.
	left := runtime.NumGoroutine()
	for wait := time.Now().Add(2 * time.Second); left > before && time.Now().Before(wait); left = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return o, e, left - before, nil
}

// endToEnd turns an untraced outcome into the end-to-end metrics, the same
// four names on every workload; README.md says what one operation is on
// each. The median latency and the throughput are the median over the run's
// blocks: a stall that hits some blocks and spares others still moves them
// once it hits most, which the best block would hide.
func endToEnd(o *outcome) map[string]metricValue {
	p50, _, _ := overBlocks(o.Blocks, func(b block) float64 { return b.P50 })
	rate, _, _ := overBlocks(o.Blocks, func(b block) float64 { return b.Rate })
	return map[string]metricValue{
		"setup_s":   {median(o.SetupS), "s"},
		"op_p50_ms": {p50, "ms"},
		"ops_per_s": {rate, "1/s"},
		"heap_mb":   {o.HeapMB, "MB"},
	}
}

// procMetrics are the process-wide per-layer numbers of a pass.
func procMetrics(o *outcome, goroutinesLeft int) map[string]metricValue {
	ops := float64(o.Ops)
	if ops == 0 {
		ops = 1
	}
	drift := 0.0
	if n := len(o.Blocks); n > 1 && o.Blocks[0].Rate > 0 {
		drift = o.Blocks[n-1].Rate / o.Blocks[0].Rate
	}
	// The tail is a per-layer number, not an end-to-end one: no statistic of
	// it held a run-to-run spread under 25% on the gateway's open loop. A
	// full-length run prints it block by block.
	p90, _, _ := overBlocks(o.Blocks, func(b block) float64 { return b.P90 })
	return map[string]metricValue{
		"proc.op_p90_ms":          {p90, "ms"},
		"proc.cpu_ms_per_op":      {float64(o.Proc.CPU) / 1e6 / ops, "ms"},
		"proc.allocs_per_op":      {float64(o.Proc.Mallocs) / ops, "count"},
		"proc.kb_per_op":          {float64(o.Proc.Bytes) / 1024 / ops, "KB"},
		"proc.retained_kb_per_op": {o.RetainedKB, "KB"},
		"proc.gc_pause_ms_per_s":  {float64(o.Proc.GCPause) / 1e6 / o.Proc.Wall.Seconds(), "ms/s"},
		"proc.goroutines_end":     {float64(goroutinesLeft), "count"},
		"proc.drift_ratio":        {drift, "ratio"},
	}
}

// count adds a pass's tally to the report and prints what failed.
func (rep *report) count(t *tally, log io.Writer) {
	rep.Attempted += t.attempted
	rep.Failed += t.failed
	for _, msg := range t.first {
		fmt.Fprintf(log, "  FAILED: %s\n", msg)
	}
}

// passShare is the part of --seconds each short pass of a traced run gets.
const passShare = 0.13

// tracedPasses is the workload's own part of a traced run: four short passes
// of it. Untraced, traced, untraced: the first warms the process up (a
// fresh heap pays page faults that later passes do not, which read as 20%
// "negative overhead" when it was the base); the traced pass, with the
// program's spans on and the benchmark's own recorded, is compared with the
// untraced one after it, which also gives the process counters. The fourth
// runs on every CPU, for the one saturation rate a multi-core change moves.
func tracedPasses(cfg runConfig, rep *report, log io.Writer) error {
	base := cfg
	base.Trace, base.Setups, base.HeapOps, base.Seconds = false, 1, 1, cfg.Seconds*passShare
	traced := base
	traced.Trace = true
	var p50s [3]float64
	for i, c := range []runConfig{base, traced, base} {
		o, e, left, err := pass(c)
		if err != nil {
			return err
		}
		rep.count(e.tally, log)
		logOutcome(log, o)
		p50s[i], _, _ = overBlocks(o.Blocks, func(b block) float64 { return b.P50 })
		if !c.Trace {
			for k, v := range procMetrics(o, left) {
				// What a pass retains is the first pass's reading: a later one
				// starts on a heap from which the closed platforms of the
				// passes before it are still draining.
				if _, have := rep.Metrics[k]; have && k == "proc.retained_kb_per_op" {
					continue
				}
				rep.Metrics[k] = v
			}
			continue
		}
		spans := e.tr.resolve()
		path, err := writeTrace(cfg.OutDir, cfg.Workload, spans, e.bus.History())
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "  trace: %d benchmark spans, %d program events -> %s\n", len(spans), len(e.bus.History()), path)
		for _, s := range summarise(spans) {
			fmt.Fprintf(log, "    span %-10s n=%-5d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	overhead := 0.0
	if p50s[2] > 0 {
		overhead = (p50s[1]/p50s[2] - 1) * 100
	}
	rep.Metrics["trace.overhead_pct"] = metricValue{overhead, "%"}

	all := base
	all.AllCPUs = true
	var o *outcome
	var e *env
	var passErr error
	if err := onAllCPUs(func() {
		fmt.Fprintf(log, "  on every CPU: GOMAXPROCS %d\n", runtime.GOMAXPROCS(0))
		o, e, _, passErr = pass(all)
	}); err != nil {
		return err
	}
	if passErr != nil {
		return passErr
	}
	rep.count(e.tally, log)
	logOutcome(log, o)
	rate, _, _ := overBlocks(o.Blocks, func(b block) float64 { return b.Rate })
	rep.Metrics["proc.unpinned_ops_per_s"] = metricValue{rate, "1/s"}
	return nil
}

// runOnce is one run as the driver asks for it. Untraced, it measures the
// workload for cfg.Seconds and reports the end-to-end metrics. Traced, it
// splits the time between the workload's short passes and the per-layer
// ladder.
func runOnce(cfg runConfig, log io.Writer) (*report, error) {
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v | %s GOMAXPROCS %d nproc %d callers %d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), satCallers)
	rep := &report{Metrics: make(map[string]metricValue)}
	if !cfg.Trace {
		o, e, _, err := pass(cfg)
		if err != nil {
			return nil, err
		}
		rep.count(e.tally, log)
		rep.Metrics = endToEnd(o)
		logOutcome(log, o)
		// The run's own spread, which a full run stores beside the medians.
		_, p50lo, p50hi := overBlocks(o.Blocks, func(b block) float64 { return b.P50 })
		_, ratelo, ratehi := overBlocks(o.Blocks, func(b block) float64 { return b.Rate })
		ranges, _ := json.Marshal(map[string][2]float64{"op_p50_ms": {p50lo, p50hi}, "ops_per_s": {ratelo, ratehi}})
		fmt.Fprintf(log, "  %s%s\n", blockRangeTag, ranges)
	} else {
		if err := tracedPasses(cfg, rep, log); err != nil {
			return nil, err
		}
		ladder(cfg, rep, log)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-28s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

func logOutcome(log io.Writer, o *outcome) {
	for _, n := range o.Notes {
		fmt.Fprintf(log, "  %s\n", n)
	}
	samples := 0
	for _, b := range o.Blocks {
		samples += b.N
	}
	fmt.Fprintf(log, "  %d blocks, %d latency samples, %d set-ups, measured %.2f s; block by block:\n",
		len(o.Blocks), samples, len(o.SetupS), o.Elapsed.Seconds())
	for _, f := range []struct {
		name  string
		field func(block) float64
	}{
		{"p50 ms", func(b block) float64 { return b.P50 }},
		{"p90 ms", func(b block) float64 { return b.P90 }},
		{"rate 1/s", func(b block) float64 { return b.Rate }},
	} {
		fmt.Fprintf(log, "    %-8s", f.name)
		for _, b := range o.Blocks {
			fmt.Fprintf(log, " %.3f", f.field(b))
		}
		fmt.Fprintln(log)
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run (default: all of them, untraced then traced)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.Seconds, "seconds", 0, "length of the timed phases of one run (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass and per-layer ladder in place of the end-to-end metrics")
	fs.StringVar(&cfg.OutDir, "out", filepath.Join("bench", "out"), "directory for trace files, results and scratch space")
	expect := fs.Bool("expect", false, "print the reference suite's headline numbers, the content of expect.json")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = trace != 0
	if *expect {
		ref, err := runSuite(0, nil, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		data, _ := json.MarshalIndent(ref.Headline, "", " ")
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if cfg.Seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if cfg.Seconds == 0 {
		sp, err := loadSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		cfg.Seconds = sp.RunSeconds
	}
	if cfg.Workload == "" {
		return fullRun(cfg, stdout)
	}
	// Only a process that measures pins itself: the runs a full run starts
	// inherit its CPU mask, and need all of it for their unpinned pass.
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU:", err)
	} else {
		fmt.Fprintf(stdout, "pinned to CPU %d, GOMAXPROCS 1\n", cpu)
	}
	rep, err := runOnce(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return exitCode(rep, stdout)
}

// exitCode prints the run's result as the last line of output and turns it
// into the exit code: non-zero when any output was wrong or any operation
// failed.
func exitCode(rep *report, stdout io.Writer) int {
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}
