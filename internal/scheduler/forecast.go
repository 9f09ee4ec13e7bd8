package scheduler

// This file holds the history-aware plug-in policies fed by the CoRI-style
// forecaster (internal/cori). Both rank by *predicted seconds*, so servers
// with and without forecast data stay comparable inside one request: a
// server without history is scored from its advertised power exactly the way
// PowerAware scores it, which is the graceful-degradation contract — with no
// history anywhere, both policies reduce to PowerAware.

// ForecastAware ranks servers by the predicted completion time of the new
// request: (pending ahead of it + itself) × the forecast duration of the
// request on that server, scaled by capacity — PowerAware with the measured
// duration model in place of the advertised-power guess.
type ForecastAware struct{}

// NewForecastAware returns a ForecastAware policy.
func NewForecastAware() *ForecastAware { return &ForecastAware{} }

// Name implements Policy.
func (f *ForecastAware) Name() string { return "forecastaware" }

// Rank implements Policy.
func (f *ForecastAware) Rank(req Request, ests []Estimate) []int {
	work := req.work()
	return rankByScore(ests, func(e *Estimate) float64 {
		pending := float64(e.QueueLen + e.Running + 1)
		cap := float64(e.Capacity)
		if cap < 1 {
			cap = 1
		}
		dur, _ := e.PredictSeconds(work)
		// Input transfer happens once, before the compute, so it adds to the
		// completion time rather than scaling with the queue. Data-local
		// servers carry 0 here and win the ties they used to lose.
		return pending*dur/cap + e.InputTransferSeconds
	})
}

// ContentionAware is the queue-wait variant: it ranks by the forecast drain
// time of the work the server has already accepted (the CoRI
// PendingWorkSeconds metric) plus the forecast duration of the new request.
// Where ForecastAware approximates queueing multiplicatively from the queue
// length, ContentionAware uses the forecaster's explicit prediction of when
// the server frees up, which stays accurate when queued jobs have very
// different sizes.
type ContentionAware struct{}

// NewContentionAware returns a ContentionAware policy.
func NewContentionAware() *ContentionAware { return &ContentionAware{} }

// Name implements Policy.
func (c *ContentionAware) Name() string { return "contentionaware" }

// Rank implements Policy.
func (c *ContentionAware) Rank(req Request, ests []Estimate) []int {
	work := req.work()
	return rankByScore(ests, func(e *Estimate) float64 {
		dur, _ := e.PredictSeconds(work)
		cap := float64(e.Capacity)
		if cap < 1 {
			cap = 1
		}
		wait, trusted := e.TrustedDrainSeconds()
		if !trusted {
			// No trusted drain forecast (absent or gone stale): approximate
			// the wait from the queue length, degrading to ForecastAware's
			// (and ultimately PowerAware's) view.
			wait = float64(e.QueueLen+e.Running) * dur / cap
		}
		// The third dimension of the estimate: compute + wait + the predicted
		// time for the input data to arrive (0 when data-local).
		return wait + dur + e.InputTransferSeconds
	})
}
