package simgrid

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cori"
)

// This file runs the data ablation (A13): a data-heavy parameter sweep with
// persistent-data reuse — every sweep point re-reads one of a handful of
// multi-GB snapshots first published on a storage node — executed in
// virtual time over per-pair virtual bandwidths, comparing a data-blind
// scheduler (rank on compute + wait only, exactly the pre-A13 formula) against
// the data-aware one the live platform runs: predicted input-transfer seconds
// folded into the score, priced from a cori.TransferMonitor trained by the
// sweep's own measured transfers. Both arms cache fetched snapshots locally
// (persistent data lives where it lands), so the blind arm's only handicap is
// not *pricing* the moves it causes — it spreads each snapshot's points across
// the platform and pays the WAN again and again, while the aware arm
// concentrates them where the bytes already are.

// DataAblationConfig parameterises the A13 comparison. Only the submission
// order varies; the platform and the sweep are the tables below.
type DataAblationConfig struct {
	// Seed shuffles the submission order of the sweep points (0 = 7).
	Seed int64
}

// The A13 sweep.
const (
	// dataStorageNode initially holds every dataset.
	dataStorageNode = "nfs"
	// The sweep reads dataDatasets distinct snapshots of dataDatasetMB each
	// (GRAFIC-scale); dataPointsPerDataset points consume each one, at
	// dataWorkGFlops of compute per point.
	dataDatasets         = 6
	dataDatasetMB        = 3000.0
	dataPointsPerDataset = 8
	dataWorkGFlops       = 2000.0
	// dataDefaultMBps is the bandwidth of a link dataBandwidthMBps does not
	// list.
	dataDefaultMBps = 100.0
	// dataFallbackMBps is the aware arm's assumed bandwidth while a pair's
	// transfer model is still untrusted — the live SeD's DataFallbackMBps,
	// still optimistic about the 10 MB/s WAN links.
	dataFallbackMBps = 50.0
	// dataMaxInFlight caps concurrently running sweep points, so placement
	// decisions interleave with completions and the transfer monitor trains
	// mid-sweep.
	dataMaxInFlight = 4
)

// dataServer is one compute node of the A13 platform.
type dataServer struct {
	Name        string
	PowerGFlops float64
}

// dataServers is the compute platform: four SeDs of mixed power, two behind
// a slow WAN link from the storage node.
var dataServers = []dataServer{
	{Name: "Lyon1", PowerGFlops: 70},
	{Name: "Lyon2", PowerGFlops: 60},
	{Name: "Nancy1", PowerGFlops: 50},
	{Name: "Sophia1", PowerGFlops: 40},
}

// dataBandwidthMBps maps cori.PairKey(a, b) to the link's virtual
// bandwidth: Nancy and Sophia sit behind a 10 MB/s WAN from the storage
// node.
var dataBandwidthMBps = map[string]float64{
	cori.PairKey("nfs", "Lyon1"):      100,
	cori.PairKey("nfs", "Lyon2"):      100,
	cori.PairKey("nfs", "Nancy1"):     10,
	cori.PairKey("nfs", "Sophia1"):    10,
	cori.PairKey("Lyon1", "Nancy1"):   20,
	cori.PairKey("Lyon1", "Sophia1"):  20,
	cori.PairKey("Lyon2", "Nancy1"):   20,
	cori.PairKey("Lyon2", "Sophia1"):  20,
	cori.PairKey("Nancy1", "Sophia1"): 15,
}

// dataBandwidth returns the virtual MB/s of the a↔b link.
func dataBandwidth(a, b string) float64 {
	if bw, ok := dataBandwidthMBps[cori.PairKey(a, b)]; ok {
		return bw
	}
	return dataDefaultMBps
}

// DataArmResult is one scheduling arm's outcome over the sweep.
type DataArmResult struct {
	Strategy     string
	MakespanS    float64
	BytesMovedMB float64
	Transfers    int
	Solves       int
	// EventLog is the deterministic dispatch trace: one line per sweep point,
	// in dispatch order, with virtual timestamps.
	EventLog []string
}

// DataAblationResult compares the two arms on the same platform, workload,
// and submission order.
type DataAblationResult struct {
	Blind *DataArmResult // compute + wait only, pre-A13 ranking
	Aware *DataArmResult // + predicted input-transfer seconds
}

// MakespanGainPct is the sweep-makespan saving of data-aware over data-blind
// scheduling, in percent.
func (r *DataAblationResult) MakespanGainPct() float64 {
	return 100 * (r.Blind.MakespanS - r.Aware.MakespanS) / r.Blind.MakespanS
}

// BytesSavedPct is the reduction in bytes moved across the virtual links.
func (r *DataAblationResult) BytesSavedPct() float64 {
	return 100 * (r.Blind.BytesMovedMB - r.Aware.BytesMovedMB) / r.Blind.BytesMovedMB
}

// Print writes the A13 summary table.
func (r *DataAblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Data ablation (A13) — transfer-priced placement on a data-heavy sweep")
	row := func(a *DataArmResult) {
		fmt.Fprintf(w, "  %-12s makespan %-12s moved %7.0f MB in %3d transfers  (%d solves)\n",
			a.Strategy, Hours(a.MakespanS), a.BytesMovedMB, a.Transfers, a.Solves)
	}
	row(r.Blind)
	row(r.Aware)
	fmt.Fprintf(w, "  makespan gain  %.1f%%\n", r.MakespanGainPct())
	fmt.Fprintf(w, "  bytes saved    %.1f%%\n", r.BytesSavedPct())
}

// dataSed is the ablation's view of one server: capacity 1, a drain time, and
// the set of snapshots already resident on its store.
type dataSed struct {
	dataServer
	freeAt float64
	has    map[int]bool // dataset index → resident
}

// runDataArm executes the sweep under one ranking. Both arms share the
// workload, submission order, platform, and caching behaviour; aware
// additionally prices predicted input transfers into placement, from the
// monitor its own completed transfers train.
func runDataArm(seed int64, aware bool) *DataArmResult {
	sim := NewSim()
	var monitor *cori.TransferMonitor
	if aware {
		monitor = cori.NewTransferMonitor(cori.Config{HalfLife: TrainingHalfLife, Now: virtualClock(sim)})
	}

	seds := make([]*dataSed, len(dataServers))
	for i, s := range dataServers {
		seds[i] = &dataSed{dataServer: s, has: map[int]bool{}}
	}
	// holders[d] is the sorted set of nodes a replica of dataset d lives on;
	// every dataset starts on the storage node only.
	holders := make([][]string, dataDatasets)
	for d := range holders {
		holders[d] = []string{dataStorageNode}
	}
	addHolder := func(d int, node string) {
		for _, h := range holders[d] {
			if h == node {
				return
			}
		}
		holders[d] = append(holders[d], node)
		sort.Strings(holders[d])
	}

	// The sweep: dataPointsPerDataset points per snapshot, submission order
	// shuffled by the seed so neither arm sees datasets in convenient runs.
	type point struct{ dataset int }
	var queue []point
	for d := 0; d < dataDatasets; d++ {
		for p := 0; p < dataPointsPerDataset; p++ {
			queue = append(queue, point{dataset: d})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })

	// predictTransfer is the aware arm's pricing: 0 when the bytes are
	// already resident, else the cheapest predicted pull from any replica,
	// each priced by cori.TransferMonitor.PredictOr like the live SeD's
	// inputTransferSeconds — the trusted pair model when one exists, the
	// optimistic fallback bandwidth until then.
	predictTransfer := func(s *dataSed, d int) float64 {
		if s.has[d] {
			return 0
		}
		best := -1.0
		for _, h := range holders[d] {
			if secs := monitor.PredictOr(h, s.Name, dataDatasetMB, dataFallbackMBps); best < 0 || secs < best {
				best = secs
			}
		}
		return best
	}

	strategy := "data-blind"
	if aware {
		strategy = "data-aware"
	}
	res := &DataArmResult{Strategy: strategy}
	inflight, next := 0, 0

	var dispatch func()
	dispatch = func() {
		for inflight < dataMaxInFlight && next < len(queue) {
			job := queue[next]
			seq := next
			next++

			// Rank: predicted finish = wait + compute (+ transfer when
			// aware); ties go to the earlier server, like ServerID order.
			var sed *dataSed
			best := 0.0
			now := sim.Now()
			for _, s := range seds {
				start := now
				if s.freeAt > start {
					start = s.freeAt
				}
				score := start + dataWorkGFlops/s.PowerGFlops
				if aware {
					score += predictTransfer(s, job.dataset)
				}
				if sed == nil || score < best {
					sed, best = s, score
				}
			}

			// Execute: pull the snapshot over the actual virtual link when
			// it is not resident (cheapest true source, name-ordered ties),
			// then compute. The blind arm pays the same pull — it just never
			// saw it coming.
			start := now
			if sed.freeAt > start {
				start = sed.freeAt
			}
			transfer, from := 0.0, ""
			if !sed.has[job.dataset] {
				for _, h := range holders[job.dataset] {
					if t := dataDatasetMB / dataBandwidth(h, sed.Name); from == "" || t < transfer {
						transfer, from = t, h
					}
				}
				res.BytesMovedMB += dataDatasetMB
				res.Transfers++
			}
			end := start + transfer + dataWorkGFlops/sed.PowerGFlops
			sed.freeAt = end
			inflight++
			if from != "" {
				res.EventLog = append(res.EventLog, fmt.Sprintf(
					"t=%09.1f point=%03d ds=%d sed=%s pull=%s transfer=%.1fs end=%.1f",
					now, seq, job.dataset, sed.Name, from, transfer, end))
			} else {
				res.EventLog = append(res.EventLog, fmt.Sprintf(
					"t=%09.1f point=%03d ds=%d sed=%s local end=%.1f",
					now, seq, job.dataset, sed.Name, end))
			}

			job, sedDone, fromDone, trDone := job, sed, from, transfer
			sim.At(end, func() {
				if fromDone != "" {
					sedDone.has[job.dataset] = true
					addHolder(job.dataset, sedDone.Name)
					if monitor != nil {
						monitor.Observe(cori.TransferSample{
							From: fromDone, To: sedDone.Name, SizeMB: dataDatasetMB,
							Duration: time.Duration(trDone * float64(time.Second)),
						})
					}
				}
				inflight--
				res.Solves++
				dispatch()
				if res.Solves == len(queue) {
					res.MakespanS = sim.Now()
				}
			})
		}
	}
	dispatch()
	sim.Run()
	return res
}

// RunDataAblation runs both arms of A13 on the same configuration.
func RunDataAblation(cfg DataAblationConfig) *DataAblationResult {
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	return &DataAblationResult{
		Blind: runDataArm(cfg.Seed, false),
		Aware: runDataArm(cfg.Seed, true),
	}
}
