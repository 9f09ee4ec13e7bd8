package ramses

import (
	"archive/tar"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/halo"
)

// permissive applies FoF settings suited to tiny test boxes.
func permissive(cfg Config) Config {
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
	return cfg
}

func TestPhase1ProducesCatalog(t *testing.T) {
	cfg := tinyConfig()
	cfg.NPart = 16
	cfg.StepsPerOutput = 6
	dir := t.TempDir()
	res, err := Phase1(permissive(cfg), dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Catalog == nil {
		t.Fatal("no catalog")
	}
	if len(res.Catalog.Halos) == 0 {
		t.Fatal("phase 1 found no halos; collapse failed or FoF broken")
	}
	// The catalog must be persisted for the zoom step.
	loaded, err := halo.LoadCatalog(filepath.Join(dir, "halos.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Halos) != len(res.Catalog.Halos) {
		t.Errorf("saved catalog has %d halos, memory %d", len(loaded.Halos), len(res.Catalog.Halos))
	}
	// Phase 1 ignores any zoom settings.
	cfg2 := cfg
	cfg2.ZoomLevels = 3
	res2, err := Phase1(permissive(cfg2), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Run.FinalSnapshot().Parts) != cfg.NPart*cfg.NPart*cfg.NPart {
		t.Error("phase 1 must run single-level")
	}
}

func TestPhase2FullChain(t *testing.T) {
	cfg := tinyConfig()
	cfg.NPart = 8
	cfg.Aout = []float64{0.4, 0.7, 1.0}
	dir := t.TempDir()

	p1, err := Phase1(permissive(cfg), "")
	if err != nil {
		t.Fatal(err)
	}
	center := [3]float64{0.5, 0.5, 0.5}
	if len(p1.Catalog.Halos) > 0 {
		center = p1.Catalog.Halos[0].Pos
	}
	res, err := Phase2(permissive(cfg), center, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Catalogs) != 3 {
		t.Fatalf("%d per-snapshot catalogs, want 3", len(res.Catalogs))
	}
	if res.Forest == nil || len(res.Forest.Nodes) != 3 {
		t.Fatal("merger forest missing or wrong depth")
	}
	if res.Galaxies == nil {
		t.Fatal("no galaxy catalog")
	}
	if res.TarPath == "" {
		t.Fatal("no results tarball")
	}
	names, err := ReadTarballIndex(res.TarPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"halos_001.dat": false, "halos_002.dat": false, "halos_003.dat": false,
		"mergertree.txt": false, "galaxies.txt": false,
	}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("tarball missing %s (has %v)", n, names)
		}
	}
}

func TestPhase2InMemory(t *testing.T) {
	cfg := tinyConfig()
	cfg.NPart = 8
	res, err := Phase2(permissive(cfg), [3]float64{0.25, 0.25, 0.25}, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.TarPath != "" {
		t.Error("in-memory phase 2 should not write a tarball")
	}
	if len(res.Catalogs) != len(cfg.Aout) {
		t.Errorf("%d catalogs, want %d", len(res.Catalogs), len(cfg.Aout))
	}
}

func TestReadTarballIndexMissing(t *testing.T) {
	if _, err := ReadTarballIndex(filepath.Join(t.TempDir(), "nope.tar.gz")); err == nil {
		t.Error("expected error for missing tarball")
	}
}

// openFiles counts this process's open file descriptors, or returns -1 where
// /proc is not available.
func openFiles() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

func TestWriteTarballFailureClosesAndRemoves(t *testing.T) {
	cfg := tinyConfig()
	cfg.NPart = 8
	res, err := Phase2(permissive(cfg), [3]float64{0.5, 0.5, 0.5}, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.tar.gz")
	boom := errors.New("catalogue writer failed")
	calls := 0
	failSecond := func(w io.Writer, c *halo.Catalog) error {
		if calls++; calls == 2 {
			return boom
		}
		return halo.WriteCatalog(w, c)
	}
	before := openFiles()
	if _, err := res.writeTarball(path, failSecond); !errors.Is(err, boom) {
		t.Fatalf("writeTarball error = %v, want the catalogue writer's", err)
	}
	if after := openFiles(); before >= 0 && after != before {
		t.Errorf("%d descriptors open after the failure, %d before: the tarball file leaked", after, before)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("partial tarball left behind (stat error %v)", err)
	}
	// The same result still packs once the writer works.
	if _, err := res.writeTarball(path, halo.WriteCatalog); err != nil {
		t.Fatal(err)
	}
	if names, err := ReadTarballIndex(path); err != nil || len(names) == 0 {
		t.Errorf("tarball after recovery: names %v, error %v", names, err)
	}
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
