// Command dietsed launches a Server Daemon hosting the two RAMSES services
// of the paper (ramsesZoom1 and ramsesZoom2) and blocks forever, like the C
// API's diet_SeD() call which "will never return".
//
//	dietsed -name Nancy1 -parent LA-Nancy -naming host:9001 -power 63.8 -workdir /tmp/sed
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/cori"
	"repro/internal/dataman"
	"repro/internal/diet"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/services"
)

// forecastAccuracy renders live forecast quality, one line per service: the
// mean |predicted − measured| relative error over the SeD's recent solves, and
// how many predictions came from a trusted CoRI model vs the power fallback.
// -cori-stats logs the lines and /statusz serves them.
func forecastAccuracy(sed *diet.SeD) []string {
	acc := sed.ForecastAccuracy()
	svcs := make([]string, 0, len(acc))
	for svc := range acc {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	lines := make([]string, len(svcs))
	for i, svc := range svcs {
		a := acc[svc]
		lines[i] = fmt.Sprintf("forecast %s: %d solves, mean |pred-meas| %.1f%%, %.0f%% model-predicted",
			svc, a.Solves, a.MeanAbsPct, 100*a.ModelShare)
	}
	return lines
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var (
		name       = flag.String("name", "SeD1", "component name")
		parent     = flag.String("parent", "", "parent agent name")
		namingAddr = flag.String("naming", "", "naming service address (required)")
		listen     = flag.String("listen", ":0", "SeD listen address")
		capacity   = flag.Int("capacity", 1, "concurrent solves (the paper's SeDs run 1)")
		power      = flag.Float64("power", 50, "advertised processing power, GFlops")
		cluster    = flag.String("cluster", "", "cluster label for reporting")
		workdir    = flag.String("workdir", "", "working directory (default: a temp dir)")
		// Self-healing: watch the parent agent and re-adopt under a fallback
		// when it goes silent (orphaned-SeD recovery).
		parentProbe  = flag.Duration("parent-probe", 0, "probe the parent agent at this interval and re-register when it lost us (0 = off)")
		parentMissed = flag.Int("parent-max-missed", 3, "consecutive failed parent probes before the SeD declares itself orphaned and tries the fallback parents")
		fallbacks    = flag.String("fallback-parents", "", "comma-separated agent names to adopt the SeD when its parent dies")
		// CoRI monitor tuning: every SeD records its solve history and
		// forecasts durations for the history-aware schedulers
		// (forecastaware, contentionaware on the agent side).
		coriWindow   = flag.Int("cori-window", 64, "CoRI history ring size per service")
		coriHalfLife = flag.Duration("cori-halflife", time.Hour, "CoRI forecast-confidence half-life")
		coriStats    = flag.Duration("cori-stats", 0, "log CoRI metrics every interval (0 = off)")
		// Persistence: snapshot the monitor so restarts keep their training.
		coriSnapshot = flag.String("cori-snapshot", "", "persist the CoRI monitor to this file: loaded at boot when present, saved on shutdown")
		coriSnapInt  = flag.Duration("cori-snapshot-interval", 0, "additionally save the CoRI snapshot every interval (needs -cori-snapshot; 0 = only on shutdown)")
		// Batch reservations: route every solve through an OAR-style queue
		// with walltime enforcement, forecast-sized grants and backfill.
		batchNodes    = flag.Int("batch-nodes", 0, "route solves through a batch queue managing this many nodes (0 = run solves inline)")
		batchJobNodes = flag.Int("batch-job-nodes", 1, "nodes each solve's reservation requests")
		batchBackfill = flag.Bool("batch-backfill", true, "conservative backfilling in the batch queue, preferring forecast-sized jobs")
		batchWall     = flag.Duration("batch-wall", 2*time.Hour, "fixed fallback walltime granted while the CoRI model is cold")
		// Data management: join a platform data catalog so the SeD serves a
		// DAGDA-style store, fetches persistent inputs by DataID, publishes
		// persistent outputs, and prices input transfers into its estimates.
		dataCatalog  = flag.String("data-catalog", "", "join the platform data catalog served at this address (empty = no data plane)")
		dataFallback = flag.Float64("data-fallback-mbps", 0, "assumed bandwidth for transfer estimates while a node pair's model is untrusted (0 = the default, 100)")
		// Observability: route events + request spans to the process log or a
		// remote LogService bus, and expose Prometheus metrics over HTTP.
		logEvents  = flag.Bool("log-events", false, "log middleware trace events and request spans")
		logsvcAddr = flag.String("logservice", "", "publish trace events and request spans to the LogService bus at this address")
		httpAddr   = flag.String("http", "", "serve /metrics, /statusz and /debug/pprof/ on this address (empty = off)")
	)
	flag.Parse()
	if *coriSnapInt > 0 && *coriSnapshot == "" {
		log.Fatal("-cori-snapshot-interval saves the -cori-snapshot file; set -cori-snapshot too")
	}
	if *namingAddr == "" {
		log.Fatal("-naming is required")
	}
	dir := *workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "dietsed-"+*name+"-")
		if err != nil {
			log.Fatal(err)
		}
	}

	var executor diet.Executor
	var batchExec *batch.ForecastExecutor
	if *batchNodes > 0 {
		if *batchJobNodes < 1 || *batchJobNodes > *batchNodes {
			log.Fatalf("-batch-job-nodes %d must be between 1 and -batch-nodes %d", *batchJobNodes, *batchNodes)
		}
		sys, err := batch.New(batch.Config{
			TotalNodes: *batchNodes, Backfill: *batchBackfill, EnforceWalltime: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		// The SeD hands its monitor to every Execute, so walltimes are sized
		// from the same history the SeD's estimates report.
		batchExec = &batch.ForecastExecutor{
			System: sys, JobName: *name, Nodes: *batchJobNodes,
			Policy: batch.WalltimePolicy{Fixed: *batchWall},
		}
		executor = batchExec
	}

	var events diet.EventSink
	var sinks logsvc.Tee
	if *logsvcAddr != "" {
		sinks = append(sinks, &logsvc.Remote{Addr: *logsvcAddr})
	}
	if *logEvents {
		sinks = append(sinks, logsvc.Printer{Logf: log.Printf})
	}
	if len(sinks) > 0 {
		events = sinks
	}
	var reg *metrics.Registry
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
	}

	var fallbackParents []string
	for _, p := range strings.Split(*fallbacks, ",") {
		if p = strings.TrimSpace(p); p != "" {
			fallbackParents = append(fallbackParents, p)
		}
	}
	cfg := diet.SeDConfig{
		Name: *name, Parent: *parent, Naming: *namingAddr,
		Capacity: *capacity, PowerGFlops: *power, Cluster: *cluster,
		WorkDir: dir, ListenAddr: *listen, Executor: executor,
		CoRI:   cori.Config{Window: *coriWindow, HalfLife: *coriHalfLife},
		Events: events, Metrics: reg,
		ParentProbe:      *parentProbe,
		ParentMaxMissed:  *parentMissed,
		FallbackParents:  fallbackParents,
		DataFallbackMBps: *dataFallback,
	}
	if *dataCatalog != "" {
		cfg.Data = &dataman.Remote{Addr: *dataCatalog}
		// Each process trains its own pair models from the transfers it sees;
		// estimates fall back to -data-fallback-mbps until a pair is trusted.
		cfg.Transfers = cori.NewTransferMonitor(cori.Config{Window: *coriWindow, HalfLife: *coriHalfLife})
	}
	sed, err := diet.NewSeD(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		addr, shutdown, err := metrics.Serve(*httpAddr, reg, func(w http.ResponseWriter) {
			fmt.Fprintf(w, "SeD %s parent %s services %v\n\n", *name, *parent, sed.ServiceNames())
			for _, line := range forecastAccuracy(sed) {
				fmt.Fprintln(w, line)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("observability HTTP on %s (/metrics /statusz /debug/pprof/)", addr)
	}
	if err := services.Register(sed, dir); err != nil {
		log.Fatal(err)
	}
	if *coriSnapshot != "" {
		// Restore before Start so the first estimates already carry the
		// previous life's training; a missing file just means a first boot.
		switch err := sed.Monitor().LoadFile(*coriSnapshot); {
		case err == nil:
			log.Printf("CoRI monitor restored from %s (services %v)", *coriSnapshot, sed.Monitor().Services())
		case errors.Is(err, os.ErrNotExist):
			log.Printf("CoRI snapshot %s not found, starting cold", *coriSnapshot)
		default:
			log.Fatalf("loading CoRI snapshot: %v", err)
		}
	}
	if err := sed.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("SeD %s serving on %s (services %v, workdir %s)",
		*name, sed.Addr(), sed.ServiceNames(), dir)

	if *coriStats > 0 {
		go func() {
			for range time.Tick(*coriStats) {
				for _, svc := range sed.Monitor().Services() {
					log.Printf("CoRI %s: %v", svc, sed.Monitor().Metrics(svc))
				}
				for _, line := range forecastAccuracy(sed) {
					log.Print(line)
				}
				if batchExec != nil {
					log.Printf("batch: %+v exec: %+v", batchExec.System.Stats(), batchExec.Stats())
				}
			}
		}()
	}
	if *coriSnapInt > 0 {
		go func() {
			for range time.Tick(*coriSnapInt) {
				if err := sed.Monitor().SaveFile(*coriSnapshot); err != nil {
					log.Printf("saving CoRI snapshot: %v", err)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down SeD %s", *name)
	if batchExec != nil {
		st := batchExec.System.Stats()
		log.Printf("batch queue: %d started, mean wait %s, %d backfilled (%d forecast-sized), %d overrun kills",
			st.Started, st.MeanQueueWait(), st.Backfilled, st.ForecastSizedBackfills, st.OverrunKills)
		batchExec.System.Close()
	}
	if *coriSnapshot != "" {
		if err := sed.Monitor().SaveFile(*coriSnapshot); err != nil {
			log.Printf("saving CoRI snapshot: %v", err)
		} else {
			log.Printf("CoRI monitor saved to %s", *coriSnapshot)
		}
	}
	sed.Close()
}
