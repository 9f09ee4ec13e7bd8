package services

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diet"
	"repro/internal/halo"
	"repro/internal/ramses"
	"repro/internal/rpc"
)

// tinyConfig keeps service-level integration tests fast.
func tinyConfig() ramses.Config {
	cfg := ramses.DefaultConfig()
	cfg.NPart = 8
	cfg.Astart = 0.1
	cfg.Aout = []float64{0.5, 1.0}
	cfg.StepsPerOutput = 3
	cfg.FoF = halo.Params{LinkingLength: 0.3, MinParticles: 4}
	return cfg
}

func TestDescriptors(t *testing.T) {
	z1 := Zoom1Desc()
	if z1.Service != "ramsesZoom1" || len(z1.Args) != 3 {
		t.Errorf("Zoom1Desc = %+v", z1)
	}
	z2 := Zoom2Desc()
	if z2.Service != "ramsesZoom2" {
		t.Errorf("Zoom2Desc service %q", z2.Service)
	}
	// The paper's layout: alloc("ramsesZoom2", 6, 6, 8).
	if z2.LastIn != 6 || z2.LastInOut != 6 || z2.LastOut != 8 {
		t.Errorf("Zoom2Desc indices (%d,%d,%d), want (6,6,8)", z2.LastIn, z2.LastInOut, z2.LastOut)
	}
	if z2.Args[0].Kind != diet.File || z2.Args[7].Kind != diet.File || z2.Args[8].Kind != diet.Scalar {
		t.Errorf("Zoom2Desc arg kinds wrong: %+v", z2.Args)
	}
}

func TestZoom2ProfileMatchesDescriptor(t *testing.T) {
	p, err := NewZoom2Profile(tinyConfig(), 3, 4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Zoom2Desc().Matches(p); err != nil {
		t.Errorf("client profile rejected by service descriptor: %v", err)
	}
	// The namelist argument is a real parseable namelist.
	name, content, err := p.FileBytes(0)
	if err != nil || name != "namelist.nml" {
		t.Fatalf("namelist arg: %q, %v", name, err)
	}
	nl, err := ramses.ParseNamelist(strings.NewReader(string(content)))
	if err != nil {
		t.Fatalf("namelist does not parse: %v", err)
	}
	if _, err := ramses.ConfigFromNamelist(nl); err != nil {
		t.Fatalf("namelist does not map to a config: %v", err)
	}
}

func TestSolveZoom1Direct(t *testing.T) {
	p, err := NewZoom1Profile(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	solve := SolveZoom1(t.TempDir())
	if err := solve(p); err != nil {
		t.Fatal(err)
	}
	cat, err := Zoom1Result(p)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NPart != 8*8*8 {
		t.Errorf("catalog NPart %d, want 512", cat.NPart)
	}
}

func TestSolveZoom2Direct(t *testing.T) {
	cfg := tinyConfig()
	p, err := NewZoom2Profile(cfg, 4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	solve := SolveZoom2(t.TempDir())
	if err := solve(p); err != nil {
		t.Fatal(err)
	}
	name, tarball, err := Zoom2Result(p)
	if err != nil {
		t.Fatal(err)
	}
	if name != "results.tar.gz" || len(tarball) == 0 {
		t.Errorf("tarball %q, %d bytes", name, len(tarball))
	}
}

func TestScratchDirsDoNotCollideAcrossProcesses(t *testing.T) {
	// Two SeDs on one shared working directory, the paper's NFS layout per
	// cluster: the other one has already served requests there, and its
	// per-request directories hold its results under every name a
	// per-process counter would hand out first.
	base := t.TempDir()
	sentinel := []byte("another SeD's results")
	for n := 1; n <= 64; n++ {
		dir := filepath.Join(base, fmt.Sprintf("%s-%06d", Zoom2Name, n))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "results.tar.gz"), sentinel, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewZoom2Profile(tinyConfig(), 4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SolveZoom2(base)(p); err != nil {
		t.Fatal(err)
	}
	if _, tarball, err := Zoom2Result(p); err != nil || bytes.Equal(tarball, sentinel) {
		t.Errorf("the solve returned another request's tarball (error %v)", err)
	}
	for n := 1; n <= 64; n++ {
		path := filepath.Join(base, fmt.Sprintf("%s-%06d", Zoom2Name, n), "results.tar.gz")
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, sentinel) {
			t.Fatalf("%s was overwritten by this SeD's solve (error %v)", path, err)
		}
	}
}

func TestScratchDirMakesItsBase(t *testing.T) {
	base := filepath.Join(t.TempDir(), "nfs", "work")
	a, err := scratchDir(base, Zoom1Name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scratchDir(base, Zoom1Name)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || filepath.Dir(a) != base || filepath.Dir(b) != base {
		t.Errorf("two requests got %s and %s, want two directories under %s", a, b, base)
	}
	// Other accounts on the shared area read the outputs, as they could
	// when every directory was made with mode 0755.
	for _, dir := range []string{a, b} {
		fi, err := os.Stat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o755 {
			t.Errorf("%s: mode %v, want rwxr-xr-x", dir, got)
		}
	}
}

// A SeD that cannot make its working directory fails the solve as
// rpc.ErrUnavailable, the fault of the server and not of the request, while
// a namelist the solver refuses (here one asking for four ranks) stays the
// request's own failure.
func TestBrokenWorkDirIsUnavailable(t *testing.T) {
	base := filepath.Join(t.TempDir(), "work")
	if err := os.WriteFile(base, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p1, err := NewZoom1Profile(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := SolveZoom1(base)(p1); !errors.Is(err, rpc.ErrUnavailable) {
		t.Errorf("ramsesZoom1 on a file as base: err = %v, want rpc.ErrUnavailable", err)
	}
	p2, err := NewZoom2Profile(tinyConfig(), 4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SolveZoom2(filepath.Join(base, "sub"))(p2); !errors.Is(err, rpc.ErrUnavailable) {
		t.Errorf("ramsesZoom2 under a file: err = %v, want rpc.ErrUnavailable", err)
	}

	ranked, err := NewZoom1Profile(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranked.SetFileBytes(0, "namelist.nml", []byte("&RUN_PARAMS\n  ncpu = 4\n/\n"), diet.Volatile)
	err = SolveZoom1(t.TempDir())(ranked)
	if err == nil || errors.Is(err, rpc.ErrUnavailable) || !strings.Contains(err.Error(), "ncpu") {
		t.Errorf("ncpu = 4: err = %v, want the request's own failure naming ncpu", err)
	}
}

// TestBrokenWorkDirFailsOver: a client whose call lands on a SeD with a
// broken working area is served by the healthy one.
func TestBrokenWorkDirFailsOver(t *testing.T) {
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	broken := filepath.Join(t.TempDir(), "work")
	if err := os.WriteFile(broken, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var specs []diet.SeDSpec
	for name, base := range map[string]string{"SeD-broken": broken, "SeD-ok": t.TempDir()} {
		specs = append(specs, diet.SeDSpec{
			Name: name, Parent: "LA1", Capacity: 1, PowerGFlops: 4,
			Services: []diet.ServiceSpec{{Desc: Zoom1Desc(), Solve: SolveZoom1(base)}},
		})
	}
	d, err := diet.Deploy(diet.DeploymentSpec{MAName: "MA-workdir", LAs: []string{"LA1"}, SeDs: specs, Local: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Finalize() })
	// Round robin sends one of the two calls to each SeD first.
	for i := 0; i < 2; i++ {
		p, err := NewZoom1Profile(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := client.Call(p)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if info.Server != "SeD-ok" {
			t.Errorf("call %d served by %s", i, info.Server)
		}
	}
}

func TestZoom2BadCenterReportsErrorCode(t *testing.T) {
	cfg := tinyConfig()
	p, err := NewZoom2Profile(cfg, 4, 4, 4, -3) // negative nbBox
	if err != nil {
		t.Fatal(err)
	}
	solve := SolveZoom2(t.TempDir())
	// The middleware call itself succeeds; failure arrives via the error
	// code, as in the paper's design.
	if err := solve(p); err != nil {
		t.Fatalf("solve should not fail at the middleware level: %v", err)
	}
	if _, _, err := Zoom2Result(p); err == nil {
		t.Error("error code should surface through Zoom2Result")
	}
	code, _ := p.ScalarInt(8)
	if code == 0 {
		t.Error("error code should be non-zero")
	}
}

func TestZoom2MalformedNamelistFailsCall(t *testing.T) {
	p, _ := diet.NewProfile("ramsesZoom2", 6, 6, 8)
	p.SetFileBytes(0, "namelist.nml", []byte("this is not a namelist"), diet.Volatile)
	for i := 1; i <= 6; i++ {
		p.SetScalarInt(i, 1, diet.Volatile)
	}
	p.SetFileBytes(7, "", nil, diet.Volatile)
	p.SetScalarInt(8, 0, diet.Volatile)
	solve := SolveZoom2(t.TempDir())
	if err := solve(p); err == nil {
		t.Error("malformed request should be a middleware-level failure")
	}
}

func TestFullCampaignThroughMiddleware(t *testing.T) {
	// The paper's experiment in miniature over the real middleware: one
	// ramsesZoom1, then several ramsesZoom2 on the found halos, over two
	// SeDs with local transport.
	rpc.ResetLocal()
	base := t.TempDir()
	specs := []diet.SeDSpec{}
	for _, name := range []string{"SeD-c1", "SeD-c2"} {
		specs = append(specs, diet.SeDSpec{
			Name: name, Parent: "LA1", Capacity: 1, PowerGFlops: 4,
			Services: []diet.ServiceSpec{
				{Desc: Zoom1Desc(), Solve: SolveZoom1(base)},
				{Desc: Zoom2Desc(), Solve: SolveZoom2(base)},
			},
		})
	}
	d, err := diet.Deploy(diet.DeploymentSpec{
		MAName: "MA-campaign", LAs: []string{"LA1"}, SeDs: specs, Local: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d.Close()
		rpc.ResetLocal()
	}()
	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()

	// Phase 1.
	p1, err := NewZoom1Profile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(p1); err != nil {
		t.Fatal(err)
	}
	cat, err := Zoom1Result(p1)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: one request per halo (at most 3), submitted simultaneously.
	n := len(cat.Halos)
	if n > 3 {
		n = 3
	}
	if n == 0 {
		t.Skip("tiny box produced no halos; phase 2 skipped")
	}
	var calls []*diet.AsyncCall
	var profiles []*diet.Profile
	for i := 0; i < n; i++ {
		h := cat.Halos[i]
		cx := int(h.Pos[0] * float64(cfg.NPart))
		cy := int(h.Pos[1] * float64(cfg.NPart))
		cz := int(h.Pos[2] * float64(cfg.NPart))
		p, err := NewZoom2Profile(cfg, cx, cy, cz, 2)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
		calls = append(calls, client.CallAsync(p))
	}
	if err := diet.WaitAll(calls); err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		name, tarball, err := Zoom2Result(p)
		if err != nil {
			t.Errorf("zoom %d: %v", i, err)
			continue
		}
		if name != "results.tar.gz" || len(tarball) == 0 {
			t.Errorf("zoom %d returned empty tarball", i)
		}
	}
	// Both SeDs participated when more than one request was sent.
	if n >= 2 {
		servers := map[string]bool{}
		for _, c := range calls {
			info, _ := c.Wait()
			servers[info.Server] = true
		}
		if len(servers) < 2 {
			t.Logf("round robin used servers %v (2 expected for %d requests)", servers, n)
		}
	}
}
