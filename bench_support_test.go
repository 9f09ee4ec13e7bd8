package repro

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diet"
	"repro/internal/rpc"
)

var benchDeployCounter atomic.Int64

// runMiddlewareOverhead deploys a minimal platform, in-process or over
// loopback TCP, and measures the full client→MA→LA→SeD→client path on a
// no-op service.
func runMiddlewareOverhead(b *testing.B, local bool) {
	b.Helper()
	id := benchDeployCounter.Add(1)
	desc, err := diet.NewProfileDesc("noop", 0, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	desc.Set(0, diet.Scalar, diet.Int)
	desc.Set(1, diet.Scalar, diet.Int)
	d, err := diet.Deploy(diet.DeploymentSpec{
		MAName: fmt.Sprintf("MA-bench-%d", id),
		LAs:    []string{fmt.Sprintf("LA-bench-%d", id)},
		SeDs: []diet.SeDSpec{{
			Name: fmt.Sprintf("SeD-bench-%d", id), Parent: fmt.Sprintf("LA-bench-%d", id),
			Capacity: 4, PowerGFlops: 4,
			Services: []diet.ServiceSpec{{
				Desc: desc,
				Solve: func(p *diet.Profile) error {
					v, err := p.ScalarInt(0)
					if err != nil {
						return err
					}
					return p.SetScalarInt(1, v, diet.Volatile)
				},
			}},
		}},
		Local: local,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		d.Close()
		rpc.ResetLocal()
	}()
	client, err := d.Client()
	if err != nil {
		b.Fatal(err)
	}

	var totalFind time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := diet.NewProfile("noop", 0, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		p.SetScalarInt(0, int64(i), diet.Volatile)
		info, err := client.Call(p)
		if err != nil {
			b.Fatal(err)
		}
		totalFind += info.Finding
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFind.Microseconds())/float64(b.N)/1000, "find_ms")
	}
}
