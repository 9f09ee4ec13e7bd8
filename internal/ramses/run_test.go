package ramses

import (
	"math"
	"strings"
	"testing"
)

// tinyConfig is a fast configuration for integration tests.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NPart = 8
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 4
	return cfg
}

func TestRunProducesOutputs(t *testing.T) {
	res, err := Run(tinyConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("%d outputs, want 2", len(res.Outputs))
	}
	for i, out := range res.Outputs {
		if out.Snap == nil {
			t.Fatalf("output %d has no snapshot", i)
		}
		if err := out.Snap.Parts.Validate(); err != nil {
			t.Errorf("output %d particles invalid: %v", i, err)
		}
		if out.Path != "" {
			t.Errorf("in-memory run should not write files, got %q", out.Path)
		}
	}
	if res.Outputs[0].A != 0.5 || res.Outputs[1].A != 1.0 {
		t.Errorf("output epochs: %v, %v", res.Outputs[0].A, res.Outputs[1].A)
	}
	if res.FinalSnapshot() != res.Outputs[1].Snap {
		t.Error("FinalSnapshot should be the last output")
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(tinyConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Outputs {
		snap, err := LoadSnapshot(dir, i+1)
		if err != nil {
			t.Fatalf("loading output %d: %v", i+1, err)
		}
		if len(snap.Parts) != len(res.Outputs[i].Snap.Parts) {
			t.Errorf("output %d: file has %d particles, memory %d",
				i+1, len(snap.Parts), len(res.Outputs[i].Snap.Parts))
		}
	}
}

func TestRunMassConservation(t *testing.T) {
	cfg := tinyConfig()
	res, err := Run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Cosmo.OmegaM * 2.77536627e11 * cfg.Box * cfg.Box * cfg.Box
	for i, out := range res.Outputs {
		got := out.Snap.Parts.TotalMass()
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("output %d: mass %g, want %g", i, got, want)
		}
	}
}

func TestRunStructureGrows(t *testing.T) {
	// Gravitational collapse must sharpen the densest peak over time.
	cfg := tinyConfig()
	cfg.NPart = 16
	cfg.StepsPerOutput = 6
	res, err := Run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	peak := func(i int) float64 {
		m, err := ProjectedDensity(res.Outputs[i].Snap, cfg.Cosmo, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		var top float64
		for _, v := range m {
			top = max(top, v)
		}
		return top
	}
	if first, last := peak(0), peak(len(res.Outputs)-1); last <= first {
		t.Errorf("density peak did not grow: %g -> %g", first, last)
	}
}

func TestRunZoomConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.ZoomLevels = 2
	cfg.ZoomCenter = [3]float64{0.5, 0.5, 0.5}
	res, err := Run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NPart
	want := 2*n*n*n - (n/2)*(n/2)*(n/2)
	if got := len(res.FinalSnapshot().Parts); got != want {
		t.Errorf("zoom run has %d particles, want %d", got, want)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.NPart = 12
	if _, err := Run(cfg, ""); err == nil {
		t.Error("expected validation error")
	}
}

func TestProjectedDensityAndRender(t *testing.T) {
	cfg := tinyConfig()
	res, err := Run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := res.FinalSnapshot()
	m, err := ProjectedDensity(snap, cfg.Cosmo, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 256 {
		t.Fatalf("map size %d", len(m))
	}
	pic := RenderASCII(m, 16)
	lines := strings.Split(strings.TrimRight(pic, "\n"), "\n")
	if len(lines) != 16 || len(lines[0]) != 16 {
		t.Errorf("ASCII render %dx%d, want 16x16", len(lines), len(lines[0]))
	}
}
