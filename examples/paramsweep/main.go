// Paramsweep explores "new research axes in cosmological simulations (on
// various low resolutions initial conditions)" — the use case the paper's
// conclusion names. It sweeps the σ₈ normalisation and the random seed over
// a pool of SeDs whose *advertised* powers differ with the contention-aware
// plug-in scheduler. The sweep submits as one burst, so placement is
// scheduled cold and the policy degrades to its power-aware fallback;
// meanwhile every SeD's CoRI monitor records the solves. The run ends by
// closing the forecast loop the way a follow-up sweep would: it prints the
// measured models, the measured-power replan (deploy.Replan — in-process
// the pool delivers *homogeneous* throughput, so the advertised ranking is
// flattened), and the forecast-sized batch walltime each SeD would reserve
// instead of a fixed grant. It reports how structure formation responds
// (halo counts at z=0) together with the load balance achieved.
//
// The sweep is data-wired (A13): each point's namelist is published once as
// a persistent dataset on a staging node, and the calls carry only DataIDs —
// the solving SeD fetches the bytes through the platform catalog, keeping a
// local replica. A second, bit-reproducibility pass re-runs every point; by
// then the inputs are resident on the platform, so the estimates price them,
// re-fetches are served from replicas, and the run reports the bytes each
// pass actually moved plus the bandwidth models those transfers trained.
//
//	go run ./examples/paramsweep
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/cori"
	"repro/internal/dataman"
	"repro/internal/deploy"
	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/platform"
	"repro/internal/ramses"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/services"
)

// sweepWorkGFlops is the nominal work estimate of one sweep point (16³
// particles, 6 steps); the absolute scale only anchors the measured
// throughput units, consistency across points is what the models need.
const sweepWorkGFlops = 2.0

func main() {
	base, err := os.MkdirTemp("", "paramsweep-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	var seds []diet.SeDSpec
	powers := []float64{40, 50, 60, 70}
	for i, p := range powers {
		seds = append(seds, diet.SeDSpec{
			Name: fmt.Sprintf("SeD%d", i+1), Parent: "LA1",
			Capacity: 1, PowerGFlops: p,
			Services: []diet.ServiceSpec{
				{Desc: services.Zoom1Desc(), Solve: services.SolveZoom1(base)},
			},
		})
	}
	// The platform data manager: a catalog every SeD joins, plus a staging
	// node standing in for the NFS server the namelists are published from.
	catalog := dataman.NewCatalog()
	staging := dataman.NewStore("staging")
	ss := rpc.NewServer()
	staging.Serve(ss)
	stagingAddr, err := rpc.ServeLocal("paramsweep-staging", ss)
	if err != nil {
		log.Fatal(err)
	}
	defer ss.Close()
	catalog.AddNode("staging", stagingAddr)

	// Count what actually moves, pass by pass.
	var transferMu sync.Mutex
	var movedKB float64
	var transfers int
	catalog.AddTransferObserver(func(from, to string, sizeMB float64, d time.Duration) {
		transferMu.Lock()
		movedKB += sizeMB * 1024
		transfers++
		transferMu.Unlock()
	})
	snapshotTransfers := func() (float64, int) {
		transferMu.Lock()
		defer transferMu.Unlock()
		return movedKB, transfers
	}

	deployment, err := diet.Deploy(diet.DeploymentSpec{
		MAName: "MA1",
		LAs:    []string{"LA1"},
		SeDs:   seds,
		Policy: scheduler.NewContentionAware(), // history-aware; power-aware fallback while cold
		Local:  true,
		Data:   catalog,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Close()

	client, err := deployment.Client()
	if err != nil {
		log.Fatal(err)
	}

	type point struct {
		sigma8 float64
		seed   int64
	}
	var sweep []point
	for _, s8 := range []float64{0.6, 0.74, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			sweep = append(sweep, point{s8, seed})
		}
	}

	// Publish every point's namelist once, as persistent data on the staging
	// node. The calls below reference it by DataID only — the bytes travel
	// through the data manager, not inline with the request.
	dataIDs := make([]string, len(sweep))
	for i, pt := range sweep {
		cfg := ramses.DefaultConfig()
		cfg.NPart = 16
		cfg.Astart = 0.1
		cfg.Aout = []float64{1.0}
		cfg.StepsPerOutput = 6
		cfg.Seed = pt.seed
		cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
		c := *cfg.Cosmo
		c.Sigma8 = pt.sigma8
		cfg.Cosmo = &c
		dataIDs[i] = fmt.Sprintf("nml/s8=%.2f/seed=%d", pt.sigma8, pt.seed)
		nml := ramses.NamelistFromConfig(cfg)
		if err := catalog.Put(dataIDs[i], "staging", dataman.Persistent, []byte(nml)); err != nil {
			log.Fatal(err)
		}
	}

	// newRefProfile builds a ramsesZoom1 call whose namelist is a platform
	// data reference instead of an inline payload.
	newRefProfile := func(id string) *diet.Profile {
		p, err := diet.NewProfile(services.Zoom1Name, 0, 0, 2)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.SetFileRef(0, "namelist.nml", id, diet.Persistent); err != nil {
			log.Fatal(err)
		}
		p.SetFileBytes(1, "", nil, diet.Volatile)
		p.SetScalarInt(2, 0, diet.Volatile)
		return p
	}

	type outcome struct {
		point
		server string
		halos  int
		mass   float64
	}
	runPass := func() []outcome {
		results := make([]outcome, len(sweep))
		calls := make([]*diet.AsyncCall, len(sweep))
		profiles := make([]*diet.Profile, len(sweep))
		for i := range sweep {
			profiles[i] = newRefProfile(dataIDs[i])
			// The work hint rides the profile to the SeD, so the CoRI monitors
			// can pair durations with a work size and measure delivered power.
			calls[i] = client.CallAsync(profiles[i], diet.WithWork(sweepWorkGFlops))
		}
		if err := diet.WaitAll(calls); err != nil {
			log.Fatal(err)
		}
		for i := range sweep {
			info, _ := calls[i].Wait()
			cat, err := services.Zoom1Result(profiles[i])
			if err != nil {
				log.Fatalf("sweep point %d: %v", i, err)
			}
			var topMass float64
			if len(cat.Halos) > 0 {
				topMass = cat.Halos[0].Mass
			}
			results[i] = outcome{point: sweep[i], server: info.Server, halos: len(cat.Halos), mass: topMass}
		}
		return results
	}

	start := time.Now()
	results := runPass()
	pass1KB, pass1Transfers := snapshotTransfers()

	fmt.Printf("parameter sweep: %d simulations in %v over %d SeDs (contention-aware scheduling)\n\n",
		len(sweep), time.Since(start).Round(time.Millisecond), len(powers))
	fmt.Println("sigma8  seed  server  halos  top-halo mass (M☉/h)")
	for _, r := range results {
		fmt.Printf("%6.2f  %4d  %-6s  %5d  %.3e\n", r.sigma8, r.seed, r.server, r.halos, r.mass)
	}

	// Higher σ₈ ⇒ more collapsed structure; verify the trend seed by seed.
	fmt.Println("\nhalo counts by sigma8 (averaged over seeds):")
	bySigma := map[float64][]int{}
	for _, r := range results {
		bySigma[r.sigma8] = append(bySigma[r.sigma8], r.halos)
	}
	var sigmas []float64
	for s := range bySigma {
		sigmas = append(sigmas, s)
	}
	sort.Float64s(sigmas)
	for _, s := range sigmas {
		sum := 0
		for _, h := range bySigma[s] {
			sum += h
		}
		fmt.Printf("  sigma8=%.2f  mean halos %.1f\n", s, float64(sum)/float64(len(bySigma[s])))
	}

	// Reproducibility pass: re-run every point. The namelists are already
	// resident on the platform, so the data-aware estimates price them and
	// replica-local solves re-fetch nothing; identical halo catalogs confirm
	// the pipeline is deterministic end to end.
	repro := runPass()
	pass2KB, pass2Transfers := snapshotTransfers()
	mismatches := 0
	for i := range results {
		if repro[i].halos != results[i].halos || repro[i].mass != results[i].mass {
			mismatches++
		}
	}
	fmt.Printf("\nreproducibility pass: %d/%d points bit-identical", len(results)-mismatches, len(results))
	if mismatches > 0 {
		fmt.Printf("  (%d MISMATCHED)", mismatches)
	}
	fmt.Println()

	// KB-scale namelists make the transfer term negligible, so placement
	// stays compute-driven and points that land on a new SeD re-fetch from
	// the nearest replica; the GB-scale case where locality wins placement
	// is the A13 simulation (experiment -ablation A13).
	fmt.Println("\ndata plane (persistent namelists, fetched by DataID through the catalog):")
	fmt.Printf("  pass 1: %d transfers, %.1f KB moved — every namelist pulled from staging once\n", pass1Transfers, pass1KB)
	fmt.Printf("  pass 2: %d transfers, %.1f KB moved — points landing on a fresh SeD pulled a replica\n",
		pass2Transfers-pass1Transfers, pass2KB-pass1KB)
	replicated := 0
	for _, id := range dataIDs {
		if catalog.ReplicaCount(id) > 1 {
			replicated++
		}
	}
	fmt.Printf("  %d/%d datasets now replicated beyond staging\n", replicated, len(dataIDs))
	if tm := deployment.Transfers; tm != nil {
		for _, pair := range tm.Pairs() {
			nodes := strings.SplitN(pair, "|", 2)
			if m, ok := tm.Model(nodes[0], nodes[1]); ok {
				fmt.Printf("  link %-18s %2d transfers, EWMA %.1f MB/s\n", pair, m.Window, m.EWMAMBps)
			}
		}
	}

	// The CoRI models trained by this burst — what a follow-up sweep would
	// actually be scheduled on, in place of the advertised powers above.
	fmt.Println("\nCoRI models learned during the sweep (EST_* metrics):")
	monitors := make(map[string]*cori.Monitor, len(deployment.SeDs))
	for _, sed := range deployment.SeDs {
		monitors[sed.Name()] = sed.Monitor()
		for _, svc := range sed.Monitor().Services() {
			met := sed.Monitor().Metrics(svc)
			fmt.Printf("  %-6s %s: %2.0f solves, EWMA %.2fs, delivered %.1f GFlops, confidence %.2f\n",
				sed.Name(), svc, met["EST_NBSAMPLES"], met["EST_TCOMP"], met["EST_DELIVERED"], met["EST_CONFIDENCE"])
		}
	}

	// Close the loop at the planning layer: re-plan the pool from measured
	// powers. In-process every SeD runs on the same machine, so the
	// heterogeneous advertisement is a lie the replan corrects.
	svcName := services.Zoom1Desc().Service
	pool := platform.Deployment{MASite: "local"}
	for i, p := range powers {
		pool.SeDs = append(pool.SeDs, platform.SeDPlacement{
			Name: fmt.Sprintf("SeD%d", i+1), Site: "local", Cluster: "pool",
			Machines: 1, CPU: platform.CPU{Model: "pool", GFlops: p / 0.7},
		})
	}
	_, changes, err := deploy.Replan(pool, deploy.Options{
		Capabilities: deploy.MonitorSource(monitors, svcName),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmeasured-power replan a follow-up sweep would deploy on:")
	if len(changes) == 0 {
		fmt.Println("  no placements change")
	}
	for _, c := range changes {
		fmt.Printf("  %s\n", c)
	}

	// And at the reservation layer: the walltime a follow-up solve would
	// reserve on each SeD — forecast-sized instead of a fixed grant.
	pol := batch.WalltimePolicy{Fixed: time.Hour}
	fmt.Printf("\nforecast-sized reservations for the next solve (fixed grant %v):\n", pol.Fixed)
	for _, sed := range deployment.SeDs {
		wall, sized := pol.Size(sed.Monitor(), svcName, sweepWorkGFlops)
		how := "forecast-sized"
		if !sized {
			how = "fixed fallback"
		}
		fmt.Printf("  %-6s walltime %8v (%s)\n", sed.Name(), wall.Round(time.Millisecond), how)
	}
}
