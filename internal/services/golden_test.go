package services

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/ramses"
)

// campaignConfig is the configuration the repository benchmark's
// zoom_campaign workload sends (bench/campaign.go), rebuilt here because the
// benchmark is its own module.
func campaignConfig(seed int64) ramses.Config {
	cfg := ramses.DefaultConfig()
	cfg.NPart = 16
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 4
	cfg.FoF = halo.Params{LinkingLength: 0.25, MinParticles: 8}
	cfg.Seed = seed
	return cfg
}

// solved runs solve on p and fails the test on a middleware-level error.
func solved(t testing.TB, solve diet.SolveFunc, p *diet.Profile) *diet.Profile {
	t.Helper()
	if err := solve(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenServiceOutputs pins the bytes the two services hand back for one
// request each at the campaign configuration. Unlike ramses'
// TestGoldenCampaignOutputs, which reuses one cosmology, every solve here
// parses its namelist into a fresh cosmo.Params, the path a SeD serves. The
// digests were produced before the service path was reworked; a change that
// moves one has changed the output and must be dropped or fixed, not
// re-pinned.
func TestGoldenServiceOutputs(t *testing.T) {
	// The zoom's tarball has another digest on 32-bit x86 (GOARCH=386);
	// both were pinned at the same commit.
	const zoom1Catalog = "e04442265121c395d5766386c30c5e13bb91ffb92ec2c3ebcfe1477b8de4338a"
	zoom2Tarball := map[string]string{
		"amd64": "15387ed9442b199a3b2f4a827fba13f96b741dd7ecbcf548c8f0652aae23b1b1",
		"386":   "35492bb9638e49704c89afe12d61815de0ab3a6388982d25ee832915b14320eb",
	}[runtime.GOARCH]
	cfg := campaignConfig(1)
	p1, err := NewZoom1Profile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, err := solved(t, SolveZoom1(t.TempDir()), p1).FileBytes(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(catalog); hex.EncodeToString(got[:]) != zoom1Catalog {
		t.Errorf("ramsesZoom1 catalogue: sha256 %x, want %s", got, zoom1Catalog)
	}

	// The seed-1 survey finds no halo, so the campaign zooms into the box
	// centre: cell 8 of 16 on each axis, two nested boxes.
	p2, err := NewZoom2Profile(cfg, 8, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, tarball, err := Zoom2Result(solved(t, SolveZoom2(t.TempDir()), p2))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(tarball); hex.EncodeToString(got[:]) != zoom2Tarball {
		t.Errorf("ramsesZoom2 tarball: sha256 %x, want %s", got, zoom2Tarball)
	}
}
