package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// TestFacadeEndToEnd drives a whole platform through the core facade alone,
// proving the re-exported surface is sufficient for a downstream user.
func TestFacadeEndToEnd(t *testing.T) {
	rpc.ResetLocal()
	defer rpc.ResetLocal()

	desc, err := core.NewProfileDesc("triple", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	desc.Set(0, core.Scalar, core.Int)
	desc.Set(1, core.Scalar, core.Int)

	d, err := core.Deploy(core.DeploymentSpec{
		MAName: "MA-facade",
		LAs:    []string{"LA1"},
		SeDs: []core.SeDSpec{{
			Name: "SeD-facade", Parent: "LA1", Capacity: 1, PowerGFlops: 4,
			Services: []core.ServiceSpec{{
				Desc: desc,
				Solve: func(p *core.Profile) error {
					v, err := p.ScalarInt(0)
					if err != nil {
						return err
					}
					return p.SetScalarInt(1, 3*v, core.Volatile)
				},
			}},
		}},
		Policy: core.NewPowerAware(),
		Local:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	client, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()

	p, err := core.NewProfile("triple", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetScalarInt(0, 14, core.Volatile)
	info, err := client.Call(p, core.WithWork(100))
	if err != nil {
		t.Fatal(err)
	}
	if info.Server != "SeD-facade" {
		t.Errorf("server %q", info.Server)
	}
	if v, _ := p.ScalarInt(1); v != 42 {
		t.Errorf("result %d, want 42", v)
	}
}

func TestPolicyByName(t *testing.T) {
	p, err := core.PolicyByName("poweraware", 1)
	if err != nil || p.Name() != "poweraware" {
		t.Errorf("PolicyByName: %v, %v", p, err)
	}
}
