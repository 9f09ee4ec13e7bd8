package diet_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/diet"
	"repro/internal/gateway"
	"repro/internal/rpc"
	"repro/internal/workflow"
)

// doomedPlatform deploys one MA, one LA and three SeDs that all host "doomed",
// a solve that always fails the same way, and returns the deployment with the
// count of solves that ran.
func doomedPlatform(t *testing.T, local bool) (*diet.Deployment, *atomic.Int64) {
	t.Helper()
	rpc.ResetLocal()
	t.Cleanup(rpc.ResetLocal)
	var runs atomic.Int64
	desc, err := diet.NewProfileDesc("doomed", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	desc.Set(0, diet.Scalar, diet.Int)
	desc.Set(1, diet.Scalar, diet.Int)
	var seds []diet.SeDSpec
	for _, name := range []string{"SeD-a", "SeD-b", "SeD-c"} {
		seds = append(seds, diet.SeDSpec{Name: name, Parent: "LA1", Capacity: 1, PowerGFlops: 10,
			Services: []diet.ServiceSpec{{Desc: desc, Solve: func(*diet.Profile) error {
				runs.Add(1)
				return errors.New("solve diverged at step 3")
			}}}})
	}
	d, err := diet.Deploy(diet.DeploymentSpec{MAName: "MA-doomed", LAs: []string{"LA1"}, SeDs: seds, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, &runs
}

func doomedProfile(t *testing.T) *diet.Profile {
	t.Helper()
	p, err := diet.NewProfile("doomed", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetScalarInt(0, 1, diet.Volatile)
	return p
}

func doomedClient(t *testing.T, d *diet.Deployment) *diet.Client {
	t.Helper()
	c, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Finalize() })
	return c
}

// A solve that fails by itself runs once, however the call reaches the
// platform: another SeD would fail it the same way, so neither the client's
// ranked walk, nor the workflow's retry, nor the gateway runs it again. The
// caller gets the solve's own text, coded rpc.ErrApp.
func TestChaosAppFailureRunsOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		local bool
		call  func(t *testing.T, d *diet.Deployment) error
	}{
		{"local", true, func(t *testing.T, d *diet.Deployment) error {
			_, err := doomedClient(t, d).Call(doomedProfile(t))
			return err
		}},
		{"tcp", false, func(t *testing.T, d *diet.Deployment) error {
			_, err := doomedClient(t, d).Call(doomedProfile(t))
			return err
		}},
		{"DietRunner", true, func(t *testing.T, d *diet.Deployment) error {
			dag := workflow.New("doomed")
			if err := dag.Add("n", "doomed", nil, nil); err != nil {
				t.Fatal(err)
			}
			r := &workflow.DietRunner{Client: doomedClient(t, d), Retries: 1}
			rep, err := r.Run(dag, map[string]workflow.TaskSpec{"n": {
				Profile: func(*workflow.TaskContext) (*diet.Profile, error) { return doomedProfile(t), nil },
			}})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Results["n"].Err
		}},
		{"gateway", true, func(t *testing.T, d *diet.Deployment) error {
			g, err := gateway.New(gateway.Config{Naming: d.NamingAddr, MAs: []string{d.MA.Name()}})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			_, _, err = g.Solve(doomedProfile(t))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, runs := doomedPlatform(t, tc.local)
			err := tc.call(t, d)
			if got := runs.Load(); got != 1 {
				t.Errorf("the failing solve ran %d times, want 1", got)
			}
			if !errors.Is(err, rpc.ErrApp) || !strings.Contains(err.Error(), "solve diverged at step 3") {
				t.Errorf("error = %v, want rpc.ErrApp with the solve's text", err)
			}
		})
	}
}
