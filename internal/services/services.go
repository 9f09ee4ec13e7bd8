// Package services defines the two DIET services of the paper and their
// solve functions: ramsesZoom1 (the low-resolution survey producing the halo
// catalog) and ramsesZoom2 (the zoom re-simulation with GALICS
// post-processing, §5.2.1). The ramsesZoom2 profile reproduces the paper's
// argument layout exactly:
//
//	arg 0 (IN,  FILE)   namelist file with the RAMSES parameters
//	arg 1 (IN,  SCALAR) resolution (particles per axis)
//	arg 2 (IN,  SCALAR) size of the initial conditions, Mpc/h
//	arg 3-5 (IN, SCALAR) centre coordinates cx, cy, cz (phase-1 grid cells)
//	arg 6 (IN,  SCALAR) number of zoom levels (nested boxes)
//	arg 7 (OUT, FILE)   results tarball
//	arg 8 (OUT, SCALAR) error code (0 = the file really contains results)
package services

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/ramses"
	"repro/internal/rpc"
)

// Service names.
const (
	Zoom1Name = "ramsesZoom1"
	Zoom2Name = "ramsesZoom2"
)

// Zoom1Desc returns the ramsesZoom1 profile descriptor: a namelist IN file,
// an OUT halo-catalog file and an OUT error code.
func Zoom1Desc() *diet.ProfileDesc {
	d, err := diet.NewProfileDesc(Zoom1Name, 0, 0, 2)
	if err != nil {
		panic(err) // static indices; unreachable
	}
	d.Set(0, diet.File, diet.Char)
	d.Set(1, diet.File, diet.Char)
	d.Set(2, diet.Scalar, diet.Int)
	return d
}

// Zoom2Desc returns the ramsesZoom2 profile descriptor, the paper's
// diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8).
func Zoom2Desc() *diet.ProfileDesc {
	d, err := diet.NewProfileDesc(Zoom2Name, 6, 6, 8)
	if err != nil {
		panic(err) // static indices; unreachable
	}
	d.Set(0, diet.File, diet.Char)
	for i := 1; i <= 6; i++ {
		d.Set(i, diet.Scalar, diet.Int)
	}
	d.Set(7, diet.File, diet.Char)
	d.Set(8, diet.Scalar, diet.Int)
	return d
}

// scratchDir makes a new per-request working directory under base, the
// paper's per-simulation NFS working directory. Its name is unique among
// every process sharing base, so SeDs on one NFS working area, or a
// restarted one, never write into another request's directory. base itself
// is made on first use. The directory is readable by all, as base is, so
// other accounts on the shared area can read the snapshots and tarball.
// A working area the SeD cannot write is the SeD's fault, not the
// request's, so the failure is rpc.ErrUnavailable: another SeD may serve it.
func scratchDir(base, service string) (string, error) {
	dir, err := os.MkdirTemp(base, service+"-")
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(base, 0o755); err == nil {
			dir, err = os.MkdirTemp(base, service+"-")
		}
	}
	if err == nil {
		err = os.Chmod(dir, 0o755)
	}
	if err != nil {
		return "", fmt.Errorf("services: working directory: %w (%w)", err, rpc.ErrUnavailable)
	}
	return dir, nil
}

// configFromProfile extracts the RAMSES configuration: the namelist file
// gives the defaults, the scalar arguments override resolution and box size.
func configFromProfile(p *diet.Profile) (ramses.Config, error) {
	_, content, err := p.FileBytes(0)
	if err != nil {
		return ramses.Config{}, fmt.Errorf("services: namelist argument: %w", err)
	}
	nl, err := ramses.ParseNamelist(bytes.NewReader(content))
	if err != nil {
		return ramses.Config{}, fmt.Errorf("services: parsing namelist: %w", err)
	}
	cfg, err := ramses.ConfigFromNamelist(nl)
	if err != nil {
		return ramses.Config{}, fmt.Errorf("services: namelist config: %w", err)
	}
	if resol, err := p.ScalarInt(1); err == nil && resol > 0 {
		cfg.NPart = int(resol)
	}
	if size, err := p.ScalarInt(2); err == nil && size > 0 {
		cfg.Box = float64(size)
	}
	return cfg, cfg.Validate()
}

// SolveZoom1 returns the solve function for ramsesZoom1. Simulation failures
// are reported through the error-code argument (the middleware call itself
// succeeds), exactly like the paper's service.
func SolveZoom1(baseDir string) diet.SolveFunc {
	return func(p *diet.Profile) error {
		cfg, err := configFromProfile(p)
		if err != nil {
			return err // malformed request: a middleware-level failure
		}
		dir, err := scratchDir(baseDir, Zoom1Name)
		if err != nil {
			return err
		}
		res, err := ramses.Phase1(cfg, dir)
		if err != nil {
			p.SetFileBytes(1, "", nil, diet.Volatile)
			p.SetScalarInt(2, 1, diet.Volatile)
			return nil
		}
		var buf bytes.Buffer
		if err := halo.WriteCatalog(&buf, res.Catalog); err != nil {
			return err
		}
		p.SetFileBytes(1, "halos.dat", buf.Bytes(), diet.Volatile)
		p.SetScalarInt(2, 0, diet.Volatile)
		return nil
	}
}

// SolveZoom2 returns the solve function for ramsesZoom2: it runs the nested
// re-simulation around the requested centre and returns the GALICS products
// packed as a tarball.
func SolveZoom2(baseDir string) diet.SolveFunc {
	return func(p *diet.Profile) error {
		cfg, err := configFromProfile(p)
		if err != nil {
			return err
		}
		var coords [3]int64
		for d := 0; d < 3; d++ {
			v, err := p.ScalarInt(3 + d)
			if err != nil {
				return fmt.Errorf("services: centre coordinate %d: %w", d, err)
			}
			coords[d] = v
		}
		nbBox, err := p.ScalarInt(6)
		if err != nil {
			return fmt.Errorf("services: nbBox argument: %w", err)
		}
		// Centre coordinates arrive as cells of the phase-1 grid.
		resol := float64(cfg.NPart)
		center := [3]float64{
			(float64(coords[0]) + 0.5) / resol,
			(float64(coords[1]) + 0.5) / resol,
			(float64(coords[2]) + 0.5) / resol,
		}
		dir, err := scratchDir(baseDir, Zoom2Name)
		if err != nil {
			return err
		}
		res, err := ramses.Phase2(cfg, center, int(nbBox), dir)
		if err != nil {
			// The simulation failed: inform the client through the error
			// code so it knows the file holds no results.
			p.SetFileBytes(7, "", nil, diet.Volatile)
			p.SetScalarInt(8, 1, diet.Volatile)
			return nil
		}
		p.SetFileBytes(7, "results.tar.gz", res.Tarball, diet.Volatile)
		p.SetScalarInt(8, 0, diet.Volatile)
		return nil
	}
}

// Register adds both RAMSES services to a SeD, using baseDir as the working
// area (the paper's NFS directory on the SeD's cluster).
func Register(sed *diet.SeD, baseDir string) error {
	if err := sed.AddService(Zoom1Desc(), SolveZoom1(baseDir)); err != nil {
		return err
	}
	return sed.AddService(Zoom2Desc(), SolveZoom2(baseDir))
}

// NewZoom1Profile builds a client-side ramsesZoom1 profile from a config.
func NewZoom1Profile(cfg ramses.Config) (*diet.Profile, error) {
	p, err := diet.NewProfile(Zoom1Name, 0, 0, 2)
	if err != nil {
		return nil, err
	}
	nml := ramses.NamelistFromConfig(cfg)
	if err := p.SetFileBytes(0, "namelist.nml", []byte(nml), diet.Volatile); err != nil {
		return nil, err
	}
	// OUT arguments are declared with empty values, as the paper requires.
	p.SetFileBytes(1, "", nil, diet.Volatile)
	p.SetScalarInt(2, 0, diet.Volatile)
	return p, nil
}

// Zoom1Result extracts the halo catalog and error code from a solved
// ramsesZoom1 profile.
func Zoom1Result(p *diet.Profile) (*halo.Catalog, error) {
	code, err := p.ScalarInt(2)
	if err != nil {
		return nil, err
	}
	if code != 0 {
		return nil, fmt.Errorf("services: ramsesZoom1 reported error code %d", code)
	}
	_, content, err := p.FileBytes(1)
	if err != nil {
		return nil, err
	}
	return halo.ReadCatalog(bytes.NewReader(content))
}

// NewZoom2Profile builds a client-side ramsesZoom2 profile: the namelist
// from cfg, the resolution/box overrides, the centre cell and the number of
// nested boxes — the nine arguments of §5.2.1.
func NewZoom2Profile(cfg ramses.Config, cx, cy, cz, nbBox int) (*diet.Profile, error) {
	p, err := diet.NewProfile(Zoom2Name, 6, 6, 8)
	if err != nil {
		return nil, err
	}
	nml := ramses.NamelistFromConfig(cfg)
	if err := p.SetFileBytes(0, "namelist.nml", []byte(nml), diet.Volatile); err != nil {
		return nil, err
	}
	p.SetScalarInt(1, int64(cfg.NPart), diet.Volatile)
	p.SetScalarInt(2, int64(cfg.Box), diet.Volatile)
	p.SetScalarInt(3, int64(cx), diet.Volatile)
	p.SetScalarInt(4, int64(cy), diet.Volatile)
	p.SetScalarInt(5, int64(cz), diet.Volatile)
	p.SetScalarInt(6, int64(nbBox), diet.Volatile)
	p.SetFileBytes(7, "", nil, diet.Volatile)
	p.SetScalarInt(8, 0, diet.Volatile)
	return p, nil
}

// Zoom2Result extracts the tarball bytes from a solved ramsesZoom2 profile,
// checking the error code first like the paper's client does.
func Zoom2Result(p *diet.Profile) (name string, tarball []byte, err error) {
	code, err := p.ScalarInt(8)
	if err != nil {
		return "", nil, err
	}
	if code != 0 {
		return "", nil, fmt.Errorf("services: ramsesZoom2 reported error code %d", code)
	}
	return p.FileBytes(7)
}
