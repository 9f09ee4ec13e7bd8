// Workflow executes the paper's Figure 4 as a DAG under the workflow engine
// the conclusion proposes: the XML document represents the nodes and data
// dependencies, and each node runs a real stage of the pipeline — GRAFIC
// initial conditions, RAMSES3d, one HaloMaker per snapshot (in parallel),
// TreeMaker, then GalaxyMaker.
//
//	go run ./examples/workflow
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/galics"
	"repro/internal/grafic"
	"repro/internal/halo"
	"repro/internal/mergertree"
	"repro/internal/ramses"
	"repro/internal/workflow"
)

func main() {
	const (
		n       = 16
		box     = 100.0
		astart  = 0.1
		nLevels = 1 // standard run: the "if nb levels == 0" branch of Figure 4
	)
	aout := []float64{0.4, 0.7, 1.0}

	doc := workflow.RamsesZoomDocument(0, len(aout))
	fmt.Println("Figure 4 workflow document:")
	doc.WriteXML(os.Stdout)
	fmt.Println()

	dag, err := workflow.FromDocument(doc)
	if err != nil {
		log.Fatal(err)
	}

	// Shared pipeline state, flowing along the DAG edges.
	var (
		c        = cosmo.WMAP3()
		gen      *grafic.Generator
		noise    *fft.Grid3 // the rolled white noise feeds the second run
		ics      *grafic.ICs
		result   *ramses.Result
		catalogs = make([]*halo.Catalog, len(aout))
	)

	bind := func(id string, fn workflow.Action) {
		if err := dag.Bind(id, fn); err != nil {
			log.Fatal(err)
		}
	}

	bind("params", func(ctx *workflow.TaskContext) error {
		var err error
		gen, err = grafic.New(c, 42)
		return err
	})
	bind("grafic1_first", func(ctx *workflow.TaskContext) error {
		var err error
		noise, err = gen.WhiteNoise(n, 0)
		return err
	})
	bind("rollwhitenoise", func(ctx *workflow.TaskContext) error {
		// Centre the region of interest; a standard run rolls by zero.
		noise = grafic.RollWhiteNoise(noise, 0, 0, 0)
		return nil
	})
	bind("grafic1_second", func(ctx *workflow.TaskContext) error {
		var err error
		ics, err = gen.MultiLevel(n, box, astart, [3]float64{0.5, 0.5, 0.5}, nLevels)
		return err
	})
	bind("mpi_setup", func(ctx *workflow.TaskContext) error { return nil })
	bind("ramses3d", func(ctx *workflow.TaskContext) error {
		cfg := ramses.DefaultConfig()
		cfg.NPart = n
		cfg.Box = box
		cfg.Astart = astart
		cfg.Aout = aout
		cfg.StepsPerOutput = 5
		var err error
		result, err = ramses.RunFromICs(cfg, ics.Parts, "")
		return err
	})
	bind("mpi_stop", func(ctx *workflow.TaskContext) error { return nil })
	for i := range aout {
		i := i
		bind(fmt.Sprintf("halomaker_s%d", i+1), func(ctx *workflow.TaskContext) error {
			snap := result.Outputs[i].Snap
			cat, err := halo.FindHalos(snap.Parts, snap.A, snap.Box,
				halo.Params{LinkingLength: 0.25, MinParticles: 8})
			catalogs[i] = cat
			return err
		})
	}
	var forest *mergertree.Forest
	bind("treemaker", func(ctx *workflow.TaskContext) error {
		var err error
		forest, err = mergertree.Build(catalogs, mergertree.DefaultParams())
		return err
	})
	var galaxies *galics.Catalog
	bind("galaxymaker", func(ctx *workflow.TaskContext) error {
		var err error
		galaxies, err = galics.Run(forest, c, galics.DefaultParams())
		return err
	})
	bind("send_results", func(ctx *workflow.TaskContext) error { return nil })

	start := time.Now()
	report := dag.Execute(4)
	if report.Err != nil {
		log.Fatal(report.Err)
	}

	fmt.Printf("workflow of %d nodes completed in %v\n", dag.Size(), time.Since(start).Round(time.Millisecond))
	fmt.Println("\nnode timings:")
	for _, nd := range doc.Nodes {
		r := report.Results[nd.ID]
		fmt.Printf("  %-16s %8v\n", nd.ID, r.End.Sub(r.Start).Round(time.Microsecond))
	}
	st := forest.Stats()
	fmt.Printf("\npipeline products: %d halos in %d snapshots, %d mergers, %d galaxies (M* total %.3e)\n",
		st.Halos, st.Snapshots, st.Mergers, len(galaxies.Galaxies), galaxies.TotalStellarMass())
}
