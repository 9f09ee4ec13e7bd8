package ramses

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/galics"
	"repro/internal/halo"
	"repro/internal/mergertree"
)

// This file implements the two services of the paper: ramsesZoom1 (the
// low-resolution survey that yields the halo catalog) and ramsesZoom2 (the
// per-halo zoom re-simulation followed by the GALICS post-processing chain,
// packed into a tarball for the client).

// Phase1Result bundles the survey run with its halo catalog.
type Phase1Result struct {
	Run     *Result
	Catalog *halo.Catalog
}

// Phase1 runs the first, low-resolution simulation and extracts the dark-
// matter halo catalog from its final snapshot — the list of high-density
// peaks from which zoom targets are chosen.
func Phase1(cfg Config, dir string) (*Phase1Result, error) {
	cfg.ZoomLevels = 1 // phase 1 is always a plain single-level run
	res, err := Run(cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("ramses: phase 1 run: %w", err)
	}
	final := res.FinalSnapshot()
	cat, err := halo.FindHalos(final.Parts, final.A, final.Box, cfg.FoF)
	if err != nil {
		return nil, fmt.Errorf("ramses: phase 1 halo finding: %w", err)
	}
	if dir != "" {
		if err := halo.SaveCatalog(filepath.Join(dir, "halos.dat"), cat); err != nil {
			return nil, err
		}
	}
	return &Phase1Result{Run: res, Catalog: cat}, nil
}

// Phase2Result is everything a zoom re-simulation produces: the run itself,
// the per-snapshot halo catalogs, the merger forest, the galaxy catalog and
// (when a directory was given) the results tarball the DIET service returns.
type Phase2Result struct {
	Run      *Result
	Catalogs []*halo.Catalog
	Forest   *mergertree.Forest
	Galaxies *galics.Catalog
	TarPath  string
}

// Phase2 re-simulates the region around `center` with nLevels nested boxes
// and applies the full GALICS chain: HaloMaker on each snapshot (one
// goroutine per snapshot, as the paper's workflow runs one HaloMaker per
// process), TreeMaker across snapshots, then GalaxyMaker.
func Phase2(cfg Config, center [3]float64, nLevels int, dir string) (*Phase2Result, error) {
	cfg.ZoomCenter = center
	cfg.ZoomLevels = nLevels
	res, err := Run(cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("ramses: phase 2 run: %w", err)
	}

	// HaloMaker on each snapshot, in parallel.
	cats := make([]*halo.Catalog, len(res.Outputs))
	errs := make([]error, len(res.Outputs))
	var wg sync.WaitGroup
	for i := range res.Outputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap := res.Outputs[i].Snap
			cats[i], errs[i] = halo.FindHalos(snap.Parts, snap.A, snap.Box, cfg.FoF)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ramses: HaloMaker on snapshot %d: %w", i+1, err)
		}
	}

	forest, err := mergertree.Build(cats, mergertree.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("ramses: TreeMaker: %w", err)
	}
	gals, err := galics.Run(forest, cfg.Cosmo, galics.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("ramses: GalaxyMaker: %w", err)
	}

	out := &Phase2Result{Run: res, Catalogs: cats, Forest: forest, Galaxies: gals}
	if dir != "" {
		tarPath := filepath.Join(dir, "results.tar.gz")
		if err := out.WriteTarball(tarPath); err != nil {
			return nil, err
		}
		out.TarPath = tarPath
	}
	return out, nil
}

// WriteTarball packs the phase-2 products the way the paper's service does
// ("the results of the simulation are packed into a tarball file"): the halo
// catalogs, a merger-tree summary and the galaxy catalog.
func (p *Phase2Result) WriteTarball(path string) error {
	return p.writeTarball(path, halo.WriteCatalog)
}

// writeTarball is WriteTarball with the catalogue encoder as a parameter, so
// a test can make packing fail part-way. A failure after the file exists
// closes it and removes the partial archive.
func (p *Phase2Result) writeTarball(path string, writeCatalog func(io.Writer, *halo.Catalog) error) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already failing; a second Close after a failed one is harmless
			os.Remove(path)
		}
	}()
	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)

	addFile := func(name string, content []byte) error {
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(content))}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(content)
		return err
	}

	for i, cat := range p.Catalogs {
		var buf bytes.Buffer
		if err := writeCatalog(&buf, cat); err != nil {
			return fmt.Errorf("ramses: packing catalog %d: %w", i, err)
		}
		if err := addFile(fmt.Sprintf("halos_%03d.dat", i+1), buf.Bytes()); err != nil {
			return err
		}
	}

	var tree bytes.Buffer
	st := p.Forest.Stats()
	fmt.Fprintf(&tree, "snapshots %d\nhalos %d\nlinks %d\nmergers %d\nmax_branch %d\nfinal_halos %d\n",
		st.Snapshots, st.Halos, st.Links, st.Mergers, st.MaxBranch, st.FinalHalos)
	if err := addFile("mergertree.txt", tree.Bytes()); err != nil {
		return err
	}

	var gal bytes.Buffer
	fmt.Fprintf(&gal, "# halo_id stellar_mass cold_gas hot_gas sfr mergers bursts\n")
	for _, g := range p.Galaxies.Galaxies {
		fmt.Fprintf(&gal, "%d %.6e %.6e %.6e %.6e %d %d\n",
			g.HaloID, g.StellarMass, g.ColdGas, g.HotGas, g.SFR, g.Mergers, g.Bursts)
	}
	if err := addFile("galaxies.txt", gal.Bytes()); err != nil {
		return err
	}

	if err := tw.Close(); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return f.Close()
}

// ReadTarballIndex lists the file names inside a phase-2 tarball; the client
// uses it to check the returned archive really contains results.
func ReadTarballIndex(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		names = append(names, hdr.Name)
	}
	return names, nil
}
