package scheduler

import "repro/internal/rpc"

// Wire layout of an Estimate (rpc.WireBody conventions), its fields in
// declaration order: two texts, three ints and two float64 of the static
// vector, then the forecast extension (bool, int, five float64) and the
// data-aware float64. Estimates travel inside the estimate, collect and
// submit replies of package diet, once per SeD per call.

// estimateFixed is the encoded size of everything but the two texts' bytes.
const estimateFixed = 2*rpc.LenSize + 4*rpc.IntSize + 8*rpc.Float64Size + rpc.BoolSize

// WireSize is the exact length AppendWire adds.
func (e *Estimate) WireSize() int { return estimateFixed + len(e.ServerID) + len(e.Service) }

// AppendWire appends the estimate's encoding to w.
func (e *Estimate) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Text(e.ServerID)
	w = w.Text(e.Service)
	w = w.Int(e.Capacity)
	w = w.Int(e.Running)
	w = w.Int(e.QueueLen)
	w = w.Float64(e.PowerGFlops)
	w = w.Float64(e.LastSolveSeconds)
	w = w.Bool(e.HasForecast)
	w = w.Int(e.ForecastSamples)
	w = w.Float64(e.EWMASolveSeconds)
	w = w.Float64(e.ForecastBaseS)
	w = w.Float64(e.ForecastPerGFlopS)
	w = w.Float64(e.ForecastConfidence)
	w = w.Float64(e.PendingWorkSeconds)
	return w.Float64(e.InputTransferSeconds)
}

// ReadWire fills the estimate from r.
func (e *Estimate) ReadWire(r *rpc.Reader) {
	e.ServerID = r.Text()
	e.Service = r.Text()
	e.Capacity = r.Int()
	e.Running = r.Int()
	e.QueueLen = r.Int()
	e.PowerGFlops = r.Float64()
	e.LastSolveSeconds = r.Float64()
	e.HasForecast = r.Bool()
	e.ForecastSamples = r.Int()
	e.EWMASolveSeconds = r.Float64()
	e.ForecastBaseS = r.Float64()
	e.ForecastPerGFlopS = r.Float64()
	e.ForecastConfidence = r.Float64()
	e.PendingWorkSeconds = r.Float64()
	e.InputTransferSeconds = r.Float64()
}

// EstimatesSize is the encoded size of a list of estimates.
func EstimatesSize(ests []Estimate) int { return rpc.ListSize(ests) }

// AppendEstimates appends a list of estimates.
func AppendEstimates(w rpc.Writer, ests []Estimate) rpc.Writer {
	return rpc.AppendList(w, ests)
}

// ReadEstimates reads a list of estimates; an empty list reads as nil.
func ReadEstimates(r *rpc.Reader) []Estimate {
	return rpc.ReadBodies[Estimate](r)
}
