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

func TestEstimateListSize(t *testing.T) {
	ests := make([]Estimate, 3)
	wiretest.Fill(&ests[1])
	if wire := AppendEstimates(nil, ests); len(wire) != EstimatesSize(ests) {
		t.Fatalf("list is %d bytes, EstimatesSize says %d", len(wire), EstimatesSize(ests))
	}
}
