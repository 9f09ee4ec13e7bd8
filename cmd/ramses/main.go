// Command ramses runs a cosmological N-body simulation from a namelist file,
// the way the paper's RAMSES3d runs inside the service: initial conditions,
// particle-mesh integration and snapshots at the requested expansion
// factors, with the particle count of each. With -render it also prints the projected
// density field of each snapshot — the paper's Figure 2 time sequence — as
// ASCII art.
//
//	ramses -nml run.nml -o /tmp/run -render
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/ramses"
)

func main() {
	var (
		nml    = flag.String("nml", "", "namelist file (default: built-in small run)")
		out    = flag.String("o", "", "output directory (default: in-memory only)")
		render = flag.Bool("render", false, "print projected density as ASCII per output")
	)
	flag.Parse()

	cfg := ramses.DefaultConfig()
	if *nml != "" {
		parsed, err := ramses.ParseNamelistFile(*nml)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err = ramses.ConfigFromNamelist(parsed)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("RAMSES run: %d^3 particles, %.0f Mpc/h, a=%g→%g, zoom levels=%d\n",
		cfg.NPart, cfg.Box, cfg.Astart, cfg.Aout[len(cfg.Aout)-1], cfg.ZoomLevels)

	res, err := ramses.Run(cfg, *out)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range res.Outputs {
		fmt.Printf("output %d: a=%.3f  particles=%d\n", o.Index, o.A, len(o.Snap.Parts))
		if o.Path != "" {
			fmt.Printf("  wrote %s\n", o.Path)
		}
		if *render {
			m, err := ramses.ProjectedDensity(o.Snap, cfg.Cosmo, 48, 2)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(ramses.RenderASCII(m, 48))
		}
	}
}
