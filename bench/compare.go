package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark itself reads: how long a
// run measures, which metrics exist, which way is better, and how much an
// end-to-end metric may worsen before a change counts as a regression.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or the one above
// it: the benchmark runs from the checkout's root, its tests from bench/.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// resultFile is what a full run writes and -compare reads: every untraced
// run of every workload, the traced passes, the ladder, and where it was
// measured.
type resultFile struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Callers    int     `json:"callers"`
	When       string  `json:"when"`
	// EndToEnd: workload → metric → one value per run. BlockRange: the lowest
	// and highest block of each of those runs, the run's own spread, for the
	// two metrics that are medians over blocks.
	EndToEnd   map[string]map[string][]float64    `json:"end_to_end"`
	BlockRange map[string]map[string][][2]float64 `json:"block_range"`
	PerLayer   map[string]map[string]float64      `json:"per_layer"` // workload → proc.* and trace.* of its traced run
	Ladder     map[string]float64                 `json:"ladder"`    // every other per-layer metric, median over the traced runs
	Attempted  int                                `json:"attempted"`
	Failed     int                                `json:"failed"`
}

// failRatio is failed, refused or wrong-output operations over attempted.
func (r *resultFile) failRatio() float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

// commit names the code that was measured, when git can tell.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fullRuns is how many untraced runs of each workload a full run makes.
const fullRuns = 3

// blockRangeTag starts the line on which an untraced run prints the lowest
// and highest block of each metric that is a median over blocks.
const blockRangeTag = "block_range "

// runSelf makes one run in a process of its own, as the driver does, and
// returns its result line and block ranges. A run in the same process as an
// earlier one is not the same measurement: a closed platform's timers keep
// megabytes reachable for seconds after Close (7.8 MB right after a 4-second
// noop_tcp pass, 5.2 MB six seconds later), which the next run's heap_mb
// then reads.
func runSelf(cfg runConfig, stdout io.Writer) (*report, map[string][2]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", cfg.Workload, "--seed", strconv.FormatInt(cfg.Seed, 10),
		"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "--trace", trace, "--out", cfg.OutDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	stdout.Write(out)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		// A run with failed operations exits 1 and still prints its result;
		// one that printed none did not run.
		if runErr != nil {
			return nil, nil, fmt.Errorf("%s: %w", cfg.Workload, runErr)
		}
		return nil, nil, fmt.Errorf("%s: result line: %w", cfg.Workload, err)
	}
	ranges := make(map[string][2]float64)
	for _, line := range lines {
		if rest, ok := bytes.CutPrefix(bytes.TrimSpace(line), []byte(blockRangeTag)); ok {
			if err := json.Unmarshal(rest, &ranges); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", cfg.Workload, line, err)
			}
		}
	}
	return &rep, ranges, nil
}

// fullRun is `bench -seed N`: for every workload, fullRuns untraced runs and
// one traced run, each in a process of its own. It writes the result file
// -compare reads. Every traced run measures the whole ladder, which does not
// depend on the workload: the file holds each rung once, the median of them.
func fullRun(cfg runConfig, stdout io.Writer) int {
	res := &resultFile{
		Seed: cfg.Seed, Seconds: cfg.Seconds, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: 1, // of the runs, each of which pins itself; this process does not
		NumCPU:     runtime.NumCPU(), Callers: satCallers,
		When:       time.Now().UTC().Format(time.RFC3339),
		EndToEnd:   make(map[string]map[string][]float64),
		BlockRange: make(map[string]map[string][][2]float64),
		PerLayer:   make(map[string]map[string]float64),
		Ladder:     make(map[string]float64),
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rungs := make(map[string][]float64)
	for _, w := range workloads {
		one := cfg
		one.Workload = w.name
		res.EndToEnd[w.name] = make(map[string][]float64)
		res.BlockRange[w.name] = make(map[string][][2]float64)
		res.PerLayer[w.name] = make(map[string]float64)
		for i := 0; i <= fullRuns; i++ {
			one.Trace = i == fullRuns
			rep, ranges, err := runSelf(one, stdout)
			if err != nil {
				return fail(err)
			}
			res.Attempted += rep.Attempted
			res.Failed += rep.Failed
			for name, m := range rep.Metrics {
				switch {
				case !one.Trace:
					res.EndToEnd[w.name][name] = append(res.EndToEnd[w.name][name], m.Value)
				case strings.HasPrefix(name, "proc.") || strings.HasPrefix(name, "trace."):
					res.PerLayer[w.name][name] = m.Value
				default:
					rungs[name] = append(rungs[name], m.Value)
				}
			}
			for name, r := range ranges {
				res.BlockRange[w.name][name] = append(res.BlockRange[w.name][name], r)
			}
		}
	}
	for name, values := range rungs {
		res.Ladder[name] = median(values)
	}

	fmt.Fprintf(stdout, "\nfail_ratio %.6f (%d failed of %d attempted)\n", res.failRatio(), res.Failed, res.Attempted)
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return fail(err)
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("result-seed%d.json", cfg.Seed))
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved" // the runs spread wider than the bound
	regressed  verdict = "regressed"
)

// spread is the distance between the extreme runs as a share of the median:
// with the few runs a result file holds, quartiles would be interpolation.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / med
}

// judge compares the runs of one metric.
//
//   - Every new run better than every old run, and the medians further apart
//     than twice either side's own spread and than a quarter of the bound:
//     improved. Three runs a side understate the spread, and two runs of the
//     same code differ by a few percent here; this is a screen, a gain is
//     claimed from paired runs (README.md).
//   - The new median worse by more than the bound: regressed — unless the
//     runs spread wider than the bound and the two sets overlap, in which
//     case the difference cannot be told from noise: unresolved.
//   - Within the bound: unchanged, or unresolved when either side's runs
//     spread wider than the bound.
func judge(old, cur []float64, lowerIsBetter bool, bound float64) (v verdict, oldSpread, curSpread float64) {
	oldMed, curMed := median(old), median(cur)
	if oldMed == 0 {
		return unresolved, 0, 0
	}
	// How much worse the new median is, as a share of the old one.
	worse := (curMed - oldMed) / oldMed
	if !lowerIsBetter {
		worse = -worse
	}
	oldSpread, curSpread = spread(old), spread(cur)
	so, sc := append([]float64(nil), old...), append([]float64(nil), cur...)
	sort.Float64s(so)
	sort.Float64s(sc)
	allBetter := sc[len(sc)-1] < so[0]
	allWorse := sc[0] > so[len(so)-1]
	if !lowerIsBetter {
		allBetter, allWorse = allWorse, allBetter
	}
	noisy := oldSpread > bound || curSpread > bound
	switch {
	case allBetter && -worse > 2*max(oldSpread, curSpread) && -worse > bound/4:
		return improved, oldSpread, curSpread
	case worse > bound && (!noisy || allWorse):
		return regressed, oldSpread, curSpread
	case noisy && !allBetter:
		return unresolved, oldSpread, curSpread
	default:
		return unchanged, oldSpread, curSpread
	}
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per end-to-end metric and workload: both
// medians, the change with its base, each side's spread and the verdict.
// It exits 1 when anything regressed.
func compareFiles(oldPath, newPath string, stdout io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	old, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "old %s: commit %s seed %d %gs, %d runs | new %s: commit %s seed %d %gs\n",
		oldPath, old.Commit, old.Seed, old.Seconds, len(old.EndToEnd["noop_tcp"]["op_p50_ms"]), newPath, cur.Commit, cur.Seed, cur.Seconds)
	if old.Seconds != cur.Seconds {
		fmt.Fprintln(stdout, "WARNING: the two sides measured for different lengths; run length is part of the benchmark")
	}
	fmt.Fprintf(stdout, "%-14s %-10s %12s %12s %-30s %8s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "change (base = old median)", "old sprd", "new sprd", "bound", "verdict")
	regressions := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			o, c := old.EndToEnd[w.Name][m.Name], cur.EndToEnd[w.Name][m.Name]
			if len(o) == 0 || len(c) == 0 {
				fmt.Fprintf(stdout, "%-14s %-10s missing on one side\n", w.Name, m.Name)
				continue
			}
			v, oldSpread, curSpread := judge(o, c, m.Better == "lower", m.Bound)
			if v == regressed {
				regressions++
			}
			change := fmt.Sprintf("%+.2f%% of %.4g %s", 100*(median(c)-median(o))/median(o), median(o), m.Unit)
			fmt.Fprintf(stdout, "%-14s %-10s %12.4f %12.4f %-30s %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(o), median(c), change, 100*oldSpread, 100*curSpread, 100*m.Bound, v)
		}
	}
	// Runs are time-boxed, so the two sides attempted different numbers of
	// operations: the ratios are compared, not the counts.
	fmt.Fprintf(stdout, "fail_ratio: old %.6f (%d of %d), new %.6f (%d of %d)\n",
		old.failRatio(), old.Failed, old.Attempted, cur.failRatio(), cur.Failed, cur.Attempted)
	if cur.failRatio() > old.failRatio() {
		fmt.Fprintln(stdout, "fail_ratio increased: regressed")
		regressions++
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
