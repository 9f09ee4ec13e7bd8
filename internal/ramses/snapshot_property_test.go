package ramses

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/particles"
)

// TestSnapshotRoundTripProperty round-trips randomly generated snapshots
// through the Fortran-record codec.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz % 64)
		s := &Snapshot{A: rng.Float64(), Box: 1 + 500*rng.Float64()}
		for i := 0; i < n; i++ {
			s.Parts = append(s.Parts, particles.Particle{
				Pos:  [3]float64{rng.Float64(), rng.Float64(), rng.Float64()},
				Vel:  [3]float64{rng.NormFloat64() * 500, rng.NormFloat64() * 500, rng.NormFloat64() * 500},
				Mass: rng.Float64() * 1e12,
				ID:   rng.Int63(),
			})
		}
		var buf bytes.Buffer
		if WriteSnapshot(&buf, s) != nil {
			return false
		}
		got, err := ReadSnapshot(&buf)
		if err != nil || got.A != s.A || got.Box != s.Box || len(got.Parts) != n {
			return false
		}
		for i := range s.Parts {
			if got.Parts[i] != s.Parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNamelistRoundTripProperty renders random configs to namelist text and
// parses them back.
func TestNamelistRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.NPart = 1 << (2 + rng.Intn(4))
		cfg.Seed = rng.Int63()
		cfg.Astart = 0.01 + 0.2*rng.Float64()
		cfg.StepsPerOutput = 1 + rng.Intn(20)
		cfg.ZoomLevels = rng.Intn(4)
		cfg.ZoomCenter = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		cfg.Aout = []float64{cfg.Astart + 0.3, cfg.Astart + 0.5}
		nl, err := ParseNamelist(bytes.NewBufferString(NamelistFromConfig(cfg)))
		if err != nil {
			return false
		}
		got, err := ConfigFromNamelist(nl)
		if err != nil {
			return false
		}
		return got.NPart == cfg.NPart &&
			got.Seed == cfg.Seed &&
			got.StepsPerOutput == cfg.StepsPerOutput &&
			got.ZoomLevels == cfg.ZoomLevels &&
			got.FoF == cfg.FoF &&
			len(got.Aout) == len(cfg.Aout)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
