package ramses

import (
	"fmt"
	"strings"
	"testing"
)

const sampleNML = `
! RAMSES run parameters
&RUN_PARAMS
  ncpu = 1
  nsteps = 10
/
&AMR_PARAMS
  levelmin = 5
  levelmax = 12
  m_refine = 8
/
&INIT_PARAMS
  aexp_ini = 0.05
  seed = 99
  cx = 12
  cy = 20
  cz = 7
  nlevels = 2
/
&OUTPUT_PARAMS
  aout = 0.3, 0.6, 1.0
/
&COSMO_PARAMS
  omega_m = 0.24
  omega_l = 0.76
  omega_b = 0.042
  h0 = 73.0
  sigma8 = 0.74
  n_s = 0.95
  boxlen = 100.0
/
`

func TestParseNamelist(t *testing.T) {
	nl, err := ParseNamelist(strings.NewReader(sampleNML))
	if err != nil {
		t.Fatal(err)
	}
	if got := nl.Groups(); len(got) != 5 {
		t.Fatalf("%d groups: %v", len(got), got)
	}
	if v, err := nl.Int("run_params", "ncpu"); err != nil || v != 1 {
		t.Errorf("ncpu = %d, %v", v, err)
	}
	// Case insensitivity.
	if v, err := nl.Int("RUN_PARAMS", "NCPU"); err != nil || v != 1 {
		t.Errorf("case-insensitive lookup failed: %d, %v", v, err)
	}
	if v, err := nl.Float("cosmo_params", "omega_m"); err != nil || v != 0.24 {
		t.Errorf("omega_m = %g, %v", v, err)
	}
	aout, err := nl.Floats("output_params", "aout")
	if err != nil || len(aout) != 3 || aout[1] != 0.6 {
		t.Errorf("aout = %v, %v", aout, err)
	}
	if !nl.Has("init_params", "seed") || nl.Has("init_params", "nope") {
		t.Error("Has misbehaves")
	}
}

func TestParseNamelistFortranisms(t *testing.T) {
	src := `
&TEST
  d_exp = 1.5d-3
  quoted = 'hello world'
  flag = .true.
  off = .false.
/
`
	nl, err := ParseNamelist(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := nl.Float("test", "d_exp"); err != nil || v != 1.5e-3 {
		t.Errorf("d exponent: %g, %v", v, err)
	}
	if s, err := nl.String("test", "quoted"); err != nil || s != "hello world" {
		t.Errorf("quoted: %q, %v", s, err)
	}
	if b, err := nl.Bool("test", "flag"); err != nil || !b {
		t.Errorf("flag: %v, %v", b, err)
	}
	if b, err := nl.Bool("test", "off"); err != nil || b {
		t.Errorf("off: %v, %v", b, err)
	}
}

func TestParseNamelistErrors(t *testing.T) {
	bad := []string{
		"&A\nkey=1\n",           // unclosed group
		"key = 1\n",             // assignment outside group
		"/\n",                   // close without open
		"&A\nnoequals\n/\n",     // missing '='
		"&A\nkey=1\n/\n&A\n/\n", // duplicate group
		"&A\n&B\n/\n/\n",        // nested group
		"&\nkey=1\n/\n",         // empty group name
		"&A\n = 2\n/\n",         // empty key
	}
	for i, src := range bad {
		if _, err := ParseNamelist(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail: %q", i, src)
		}
	}
}

func TestMissingLookups(t *testing.T) {
	nl, _ := ParseNamelist(strings.NewReader("&A\nx = 1\n/\n"))
	if _, err := nl.Int("nope", "x"); err == nil {
		t.Error("missing group should error")
	}
	if _, err := nl.Int("a", "nope"); err == nil {
		t.Error("missing key should error")
	}
	if _, err := nl.Float("a", "x"); err != nil {
		t.Error("int should parse as float")
	}
	nl2, _ := ParseNamelist(strings.NewReader("&A\nx = 1, 2\n/\n"))
	if _, err := nl2.Int("a", "x"); err == nil {
		t.Error("list value should not read as scalar")
	}
}

func TestConfigFromNamelist(t *testing.T) {
	nl, err := ParseNamelist(strings.NewReader(sampleNML))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromNamelist(nl)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NPart != 32 { // levelmin 5
		t.Errorf("NPart = %d, want 32", cfg.NPart)
	}
	if cfg.StepsPerOutput != 10 {
		t.Errorf("run params: %+v", cfg)
	}
	if cfg.Astart != 0.05 || cfg.Seed != 99 {
		t.Errorf("init params: %+v", cfg)
	}
	if cfg.ZoomLevels != 2 || cfg.ZoomCenter != [3]float64{12, 20, 7} {
		t.Errorf("zoom params: %+v", cfg)
	}
	if len(cfg.Aout) != 3 || cfg.Aout[2] != 1.0 {
		t.Errorf("aout: %v", cfg.Aout)
	}
	if cfg.Cosmo.H != 0.73 || cfg.Cosmo.OmegaM != 0.24 {
		t.Errorf("cosmo: %+v", cfg.Cosmo)
	}
	if cfg.Box != 100 {
		t.Errorf("box: %g", cfg.Box)
	}
}

// TestConfigFromNamelistRefusesRanks: the solver runs on one process, so a
// namelist asking for more is refused by the key's name, while ncpu = 1 and
// no ncpu at all still parse.
func TestConfigFromNamelistRefusesRanks(t *testing.T) {
	parse := func(runParams string) error {
		nl, err := ParseNamelist(strings.NewReader("&RUN_PARAMS\n" + runParams + "/\n"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = ConfigFromNamelist(nl)
		return err
	}
	for _, ok := range []string{"", "ncpu = 1\n", "ncpu = 1\nnsteps = 4\n", "nsteps = 4\n"} {
		if err := parse(ok); err != nil {
			t.Errorf("%q refused: %v", ok, err)
		}
	}
	for _, bad := range []string{"ncpu = 4\n", "NCPU = 2\n"} {
		err := parse(bad)
		if err == nil || !strings.Contains(err.Error(), "ncpu") {
			t.Errorf("%q: err = %v, want a refusal naming ncpu", bad, err)
		}
	}
	if text := NamelistFromConfig(DefaultConfig()); strings.Contains(text, "ncpu") {
		t.Errorf("NamelistFromConfig writes ncpu:\n%s", text)
	}
}

func TestNamelistConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NPart = 16
	cfg.Seed = 6344595556488699428 // wider than a 32-bit int
	cfg.ZoomCenter = [3]float64{0.25, 0.5, 0.75}
	cfg.ZoomLevels = 3
	cfg.Aout = []float64{0.4, 0.8}
	text := NamelistFromConfig(cfg)
	nl, err := ParseNamelist(strings.NewReader(text))
	if err != nil {
		t.Fatalf("generated namelist does not parse: %v\n%s", err, text)
	}
	got, err := ConfigFromNamelist(nl)
	if err != nil {
		t.Fatal(err)
	}
	if got.NPart != cfg.NPart || got.Seed != cfg.Seed ||
		got.ZoomLevels != cfg.ZoomLevels || got.ZoomCenter != cfg.ZoomCenter {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cfg)
	}
	if len(got.Aout) != 2 || got.Aout[0] != 0.4 {
		t.Errorf("aout round trip: %v", got.Aout)
	}
	if got.Cosmo.Sigma8 != cfg.Cosmo.Sigma8 {
		t.Errorf("cosmo round trip: %+v", got.Cosmo)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := map[string]func(*Config){
		"no cosmo":        func(c *Config) { c.Cosmo = nil },
		"bad box":         func(c *Config) { c.Box = -1 },
		"npart not pow2":  func(c *Config) { c.NPart = 12 },
		"bad astart":      func(c *Config) { c.Astart = 0 },
		"no outputs":      func(c *Config) { c.Aout = nil },
		"aout descending": func(c *Config) { c.Aout = []float64{0.5, 0.3} },
		"aout before a0":  func(c *Config) { c.Aout = []float64{0.01} },
		"aout beyond 1":   func(c *Config) { c.Aout = []float64{1.5} },
		"zero steps":      func(c *Config) { c.StepsPerOutput = 0 },
		"negative zoom":   func(c *Config) { c.ZoomLevels = -1 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// Groups returns the group names in file order.
func (nl *Namelist) Groups() []string { return append([]string(nil), nl.order...) }

// Bool returns a scalar logical value (.true./.false., t/f, true/false).
func (nl *Namelist) Bool(group, key string) (bool, error) {
	s, err := nl.String(group, key)
	if err != nil {
		return false, err
	}
	switch strings.ToLower(strings.Trim(s, ".")) {
	case "true", "t":
		return true, nil
	case "false", "f":
		return false, nil
	}
	return false, fmt.Errorf("ramses: %s/%s: invalid logical %q", group, key, s)
}
