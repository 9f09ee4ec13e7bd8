// Quickstart: the smallest complete DIET deployment — a naming service, a
// Master Agent, one Local Agent and one SeD offering a "scale" service — and
// a client call through the full GridRPC path, all inside one process.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/diet"
)

func main() {
	// Describe the service: one IN vector, one IN scalar factor, one OUT
	// vector (the profile layout a C DIET server would declare with
	// diet_profile_desc_alloc("scale", 1, 1, 2)).
	desc, err := diet.NewProfileDesc("scale", 1, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	desc.Set(0, diet.Vector, diet.Double)
	desc.Set(1, diet.Scalar, diet.Double)
	desc.Set(2, diet.Vector, diet.Double)

	solve := func(p *diet.Profile) error {
		v, err := p.VectorDouble(0)
		if err != nil {
			return err
		}
		f, err := p.ScalarDouble(1)
		if err != nil {
			return err
		}
		out := make([]float64, len(v))
		for i := range v {
			out[i] = f * v[i]
		}
		return p.SetVectorDouble(2, out, diet.Volatile)
	}

	// Deploy the platform: MA ← LA ← SeD, all in-process.
	deployment, err := diet.Deploy(diet.DeploymentSpec{
		MAName: "MA1",
		LAs:    []string{"LA1"},
		SeDs: []diet.SeDSpec{{
			Name: "SeD1", Parent: "LA1", Capacity: 1, PowerGFlops: 4,
			Services: []diet.ServiceSpec{{Desc: desc, Solve: solve}},
		}},
		Local: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Close()

	// The client side: diet_initialize / diet_call / diet_finalize.
	client, err := deployment.Client()
	if err != nil {
		log.Fatal(err)
	}
	defer client.Finalize()

	profile, err := diet.NewProfile("scale", 1, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	profile.SetVectorDouble(0, []float64{1, 2, 3, 4}, diet.Volatile)
	profile.SetScalarDouble(1, 2.5, diet.Volatile)
	profile.SetVectorDouble(2, nil, diet.Volatile) // OUT placeholder

	info, err := client.Call(profile)
	if err != nil {
		log.Fatal(err)
	}
	result, err := profile.VectorDouble(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved on %s: scale(1..4, 2.5) = %v\n", info.Server, result)
	fmt.Printf("finding time %v, total %v\n", info.Finding, info.Total)
}
