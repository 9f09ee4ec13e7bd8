package ramses

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"testing"

	"repro/internal/halo"
)

// campaignConfig is the configuration the repository benchmark's
// zoom_campaign workload runs (bench/campaign.go), rebuilt here because the
// benchmark is its own module.
func campaignConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.NPart = 16
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 4
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
	cfg.Seed = seed
	return cfg
}

// catalogDigest hashes the catalogues' file bytes, in order.
func catalogDigest(t *testing.T, cats ...*halo.Catalog) string {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range cats {
		if err := halo.WriteCatalog(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// snapshotDigest hashes the raw float64 bits of every position and velocity
// of the snapshot, whose particles Run leaves sorted by ID.
func snapshotDigest(s *Snapshot) string {
	h := sha256.New()
	var word [8]byte
	for i := range s.Parts {
		for _, v := range [2][3]float64{s.Parts[i].Pos, s.Parts[i].Vel} {
			for d := 0; d < 3; d++ {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v[d]))
				h.Write(word[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCampaignOutputs pins every byte the two services hand back at the
// benchmark's campaign configuration. The digests were produced by the
// kernels as they stood before the profile-led pass over cosmo, grafic,
// nbody, fft and halo; an optimisation of those packages that moves one of
// them has changed the physics output and must be dropped or fixed, not
// re-pinned.
func TestGoldenCampaignOutputs(t *testing.T) {
	golden := map[int64]map[string]string{
		1: {
			"phase1.catalog":  "e04442265121c395d5766386c30c5e13bb91ffb92ec2c3ebcfe1477b8de4338a",
			"phase1.snapshot": "392c7fbd21d3974cbeef3ffe65d6a3f99ef88bd74dca684485924a6e873eb870",
			"phase2.catalogs": "98aac2e79f273bbadb667292d4b154784e654bded97883b1d70be5ebc3a3515d",
			"phase2.snapshot": "7ba30dbc35f0f1f63893ae2b17950d68da8c50653ad48c966d821abb2033a01d",
			"phase2.tarball":  "8720459e529fead31519c71289315f84437b9b93b6725e7296bb4acb433cd690",
		},
		2: {
			"phase1.catalog":  "6e0d61578d116d9de575073cbdaf93e974b1ea981b664710f52e2e5e2f42409a",
			"phase1.snapshot": "cc5a4666c22fe2f4eeca96642526211030340c8bf7a8897cbbfd5e2dbda3a3c5",
			"phase2.catalogs": "33ec33135d64105813ddb34c4a0a715f89da78f2bd8df42fbcd03a3db28c5f39",
			"phase2.snapshot": "25ac179c304c6291fddd946518981e17ee5dad774b3dd3beb0d53803bc5da200",
			"phase2.tarball":  "8cc72de315e74f494f164ce7a2b736a6c9aeb49312209364ea930f4e174c3f75",
		},
	}
	for seed, want := range golden {
		cfg := campaignConfig(seed)
		p1, err := Phase1(cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Phase2(cfg, [3]float64{0.5, 0.5, 0.5}, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tarball, err := os.ReadFile(p2.TarPath)
		if err != nil {
			t.Fatal(err)
		}
		tarSum := sha256.Sum256(tarball)
		got := map[string]string{
			"phase1.catalog":  catalogDigest(t, p1.Catalog),
			"phase1.snapshot": snapshotDigest(p1.Run.FinalSnapshot()),
			"phase2.catalogs": catalogDigest(t, p2.Catalogs...),
			"phase2.snapshot": snapshotDigest(p2.Run.FinalSnapshot()),
			"phase2.tarball":  hex.EncodeToString(tarSum[:]),
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("seed %d %s: sha256 %s, want %s", seed, name, got[name], w)
			}
		}
		// The seed-1 survey finds no halo at this resolution (the campaign
		// then zooms into the box centre); every zoom finds some.
		if len(p2.Catalogs[len(p2.Catalogs)-1].Halos) == 0 {
			t.Errorf("seed %d: the zoom found no halo, so its catalogue digest pins nothing", seed)
		}
	}
}
