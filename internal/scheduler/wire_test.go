package scheduler

import (
	"math"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

func TestEstimateWireRoundTrip(t *testing.T) {
	var filled Estimate
	wiretest.Fill(&filled)
	odd := Estimate{
		ServerID:           "Nançy-1",
		LastSolveSeconds:   -1,
		PowerGFlops:        math.Inf(1),
		FreeMemMB:          math.Inf(-1),
		ForecastConfidence: math.Float64frombits(0x7ff8000000000abc),
		PendingWorkSeconds: math.Copysign(0, -1),
		Running:            math.MinInt64,
	}
	for _, e := range []Estimate{{}, filled, odd} {
		wire := wiretest.RoundTrip(t, &e, &Estimate{})
		wiretest.RefuseDamaged(t, wire, func() rpc.WireBody { return &Estimate{} })
	}
}

// estimateList is a body that is nothing but a list of estimates, as the
// collect reply of package diet is.
type estimateList []Estimate

func (l *estimateList) WireSize() int                      { return EstimatesSize(*l) }
func (l *estimateList) AppendWire(w rpc.Writer) rpc.Writer { return AppendEstimates(w, *l) }
func (l *estimateList) ReadWire(r *rpc.Reader)             { *l = ReadEstimates(r) }

func TestEstimateListSize(t *testing.T) {
	ests := make(estimateList, 3)
	wiretest.Fill(&ests[1])
	wiretest.RoundTrip(t, &ests, &estimateList{})
}
