// Command dietagent launches a DIET scheduling agent — the Master Agent or a
// Local Agent — over TCP, optionally hosting the naming service for the
// whole deployment (the role omniORB's name server plays in the paper's
// §6.1 deployment).
//
// Typical bring-up, mirroring the paper's 1 MA + 6 LA hierarchy:
//
//	dietagent -name MA1 -kind MA -host-naming :9001 -listen :9000
//	dietagent -name LA-Nancy -kind LA -parent MA1 -naming host:9001 -listen :9100
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataman"
	"repro/internal/deploy"
	"repro/internal/diet"
	"repro/internal/logsvc"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/platform"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// randomSeed seeds the random policy; replanService is the service whose
// measured models drive live replanning, the campaign's long zoom solves.
const (
	randomSeed    = 1
	replanService = "ramsesZoom2"
)

// host serves one platform service (the naming service, the data catalog or
// the LogService bus) in this process on addr and returns the bound address.
func host(what, object string, handler rpc.Handler, addr string) (string, *rpc.Server) {
	server := rpc.NewServer()
	server.Register(object, handler)
	bound, err := server.Start(addr)
	if err != nil {
		log.Fatalf("starting %s: %v", what, err)
	}
	return bound, server
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var (
		name       = flag.String("name", "MA1", "component name")
		kind       = flag.String("kind", "MA", "agent kind: MA or LA")
		parent     = flag.String("parent", "", "parent agent name (LA only)")
		namingAddr = flag.String("naming", "", "naming service address (host:port)")
		hostNaming = flag.String("host-naming", "", "host the naming service in this process on this listen address (empty = use -naming)")
		listen     = flag.String("listen", ":9000", "agent listen address")
		policy     = flag.String("policy", "roundrobin", "MA scheduling policy: roundrobin, random, mct, poweraware, forecastaware, contentionaware")
		peers      = flag.String("peers", "", "comma-separated peer Master Agent names to federate with; a Submit this MA cannot satisfy locally is forwarded to the federation (MA only)")
		fwdHops    = flag.Int("forward-hops", diet.DefaultForwardHops, "how many MAs a federated request may traverse, counting this MA's forward as the first hop")
		heartbeat  = flag.Duration("heartbeat", 0, "ping children every interval, evicting dead ones; each sweep also gossips CoRI models through the hierarchy (0 = off)")
		maxMissed  = flag.Int("max-missed", 3, "consecutive missed heartbeats before a child is evicted")
		missEvict  = flag.Int("heartbeat-miss-evict", 0, "evict a child after this many consecutive failed estimate collections, independent of the heartbeat sweeps (0 = off)")
		replanInt  = flag.Duration("replan-interval", 0, "live replanning cadence: re-plan the paper deployment from the gossip registry's "+replanService+" models and migrate SeDs online (needs -heartbeat; 0 = off)")
		replanMin  = flag.Float64("replan-min-delta", 0, "hysteresis: drop replan power refreshes within this percentage of the applied figure (needs -replan-interval; 0 = keep every refresh)")
		replanDwel = flag.Duration("replan-dwell", 0, "hysteresis: minimum time between parent moves of the same SeD; moves wanted sooner are deferred (needs -replan-interval; 0 = move freely)")
		evictConf  = flag.Float64("evict-confidence", 0, "expire gossip-registry contributions whose decayed confidence falls below this floor (0 = keep forever)")
		evictHL    = flag.Duration("evict-halflife", time.Hour, "confidence decay half-life registry eviction uses")
		hostCat    = flag.String("host-datacatalog", "", "host the platform data catalog in this process on this listen address; SeDs join it with dietsed -data-catalog (empty = not hosted)")
		catCap     = flag.Int("datacatalog-replica-cap", 0, "replicas per dataset the hosted catalog mints on demand-fetch paths (0 = unlimited)")
		logEvents  = flag.Bool("log-events", false, "log middleware trace events (registrations, evictions, replans, migrations)")
		// Observability: host the LogService bus (typically beside the MA,
		// like the paper's monitoring node), publish to a remote one, and/or
		// expose Prometheus metrics over HTTP.
		hostLogsvc = flag.String("host-logservice", "", "host the LogService bus in this process on this listen address, the monitoring node beside the MA (empty = not hosted)")
		logsvcHist = flag.Int("logservice-history", 4096, "events the hosted LogService bus retains")
		logsvcAddr = flag.String("logservice", "", "publish trace events and request spans to the LogService bus at this address")
		httpAddr   = flag.String("http", "", "serve /metrics, /statusz and /debug/pprof/ on this address (empty = off)")
	)
	flag.Parse()
	if *replanInt <= 0 && (*replanMin > 0 || *replanDwel > 0) {
		log.Fatal("-replan-min-delta and -replan-dwell damp live replanning; set -replan-interval too")
	}

	if *hostNaming != "" {
		addr, server := host("naming service", naming.ObjectName, naming.NewService().Handler(), *hostNaming)
		defer server.Close()
		*namingAddr = addr
		log.Printf("naming service listening on %s", addr)
	}
	if *namingAddr == "" {
		fmt.Fprintln(os.Stderr, "either -naming or -host-naming is required")
		os.Exit(2)
	}

	var agentKind diet.AgentKind
	switch *kind {
	case "MA":
		agentKind = diet.MasterAgent
	case "LA":
		agentKind = diet.LocalAgent
	default:
		log.Fatalf("unknown agent kind %q (want MA or LA)", *kind)
	}
	pol, err := scheduler.ByName(*policy, randomSeed)
	if err != nil {
		log.Fatal(err)
	}

	cfg := diet.AgentConfig{
		Name: *name, Kind: agentKind, Parent: *parent,
		Naming: *namingAddr, Policy: pol, ListenAddr: *listen,
		HeartbeatInterval: *heartbeat, MaxMissed: *maxMissed,
		CollectMissEvict:     *missEvict,
		EvictConfidenceFloor: *evictConf, EvictHalfLife: *evictHL,
		ForwardHops: *fwdHops,
	}
	if *peers != "" {
		if agentKind != diet.MasterAgent {
			log.Fatal("-peers is a Master Agent role: only MAs federate")
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
		log.Printf("federating with %v (forward budget %d hops)", cfg.Peers, *fwdHops)
	}

	if *hostCat != "" {
		cat := dataman.NewCatalog()
		if *catCap > 0 {
			cat.SetReplicaCap(*catCap)
		}
		addr, server := host("data catalog", dataman.CatalogObjectName, cat.Handler(), *hostCat)
		defer server.Close()
		log.Printf("data catalog on %s; join SeDs with dietsed -data-catalog %s", addr, addr)
	}

	var sinks logsvc.Tee
	if *hostLogsvc != "" {
		bus := logsvc.New(*logsvcHist)
		addr, server := host("LogService bus", logsvc.ObjectName, bus.Handler(), *hostLogsvc)
		defer server.Close()
		log.Printf("LogService bus on %s (history %d); attach with dietmon -logservice %s", addr, *logsvcHist, addr)
		sinks = append(sinks, bus)
	}
	if *logsvcAddr != "" {
		sinks = append(sinks, &logsvc.Remote{Addr: *logsvcAddr})
	}
	if *logEvents {
		sinks = append(sinks, logsvc.Printer{Logf: log.Printf})
	}
	if len(sinks) > 0 {
		cfg.Events = sinks
	}

	if *httpAddr != "" {
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		addr, shutdown, err := metrics.Serve(*httpAddr, reg, func(w http.ResponseWriter) {
			fmt.Fprintf(w, "agent %s kind %s policy %s naming %s\n", *name, *kind, *policy, *namingAddr)
		})
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("observability HTTP on %s (/metrics /statusz /debug/pprof/)", addr)
	}
	if *replanInt > 0 {
		if *heartbeat <= 0 {
			log.Fatal("-replan-interval rides the heartbeat sweeps; set -heartbeat too")
		}
		if agentKind != diet.MasterAgent {
			log.Fatal("-replan-interval is a Master Agent role")
		}
		cfg.ReplanInterval = *replanInt
		// Damped when asked: migration thrash costs a drain pause per move,
		// so noisy measurements shouldn't bounce SeDs between parents.
		var h *deploy.Hysteresis
		if *replanMin > 0 || *replanDwel > 0 {
			h = deploy.NewHysteresis(deploy.HysteresisConfig{
				MinPowerDeltaPct: *replanMin, Dwell: *replanDwel,
			})
		}
		cfg.Replanner = deploy.LiveReplannerWith(platform.PaperDeployment(), replanService, h)
		log.Printf("live replanning every %s from %q models (hysteresis: min delta %.1f%%, dwell %s)",
			*replanInt, replanService, *replanMin, *replanDwel)
	}
	agent, err := diet.NewAgent(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("%s %s serving on %s (policy %s, naming %s)",
		*kind, *name, agent.Addr(), pol.Name(), *namingAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down %s", *name)
	agent.Close()
}
