// Package scheduler implements DIET's plug-in scheduler framework: servers
// report estimation vectors, and a pluggable policy ranks them for each
// incoming request. The same policies drive both the live middleware (the
// Master Agent ranks SeDs) and the discrete-event platform simulator, which
// is what makes the paper's scheduling ablation (§6.2/§8: "a better makespan
// could be attained by writing a plug-in scheduler") directly measurable.
package scheduler

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Estimate is one server's estimation vector, the DIET "collected computation
// ability" for a service.
type Estimate struct {
	ServerID         string  // unique SeD identity
	Addr             string  // where the SeD serves: a client sends its solve there
	Service          string  // service this estimate answers for
	Capacity         int     // concurrent solve slots (the paper's SeDs have 1)
	Running          int     // solves currently executing
	QueueLen         int     // requests waiting
	PowerGFlops      float64 // advertised processing power
	LastSolveSeconds float64 // duration of the last completed solve; <0 if none yet

	// CoRI/FAST forecast extension (internal/cori). The zero value means the
	// server runs no forecaster; policies must then fall back to the static
	// fields above.
	HasForecast        bool
	ForecastSamples    int     // solves the model was fitted on
	EWMASolveSeconds   float64 // exponentially weighted recent solve duration
	ForecastBaseS      float64 // least-squares intercept, seconds
	ForecastPerGFlopS  float64 // least-squares slope, seconds per GFlop (0 = no fit)
	ForecastConfidence float64 // (0,1]; decays as the history goes stale
	PendingWorkSeconds float64 // predicted time to drain running+queued work

	// Data-aware extension (internal/dataman + cori.TransferMonitor):
	// predicted seconds to move the request's input data to this server from
	// its nearest replicas. 0 means data-local or no registered inputs, so a
	// platform without datasets ranks exactly as it did before the field
	// existed — the data-blind contract.
	InputTransferSeconds float64
}

// MinConfidence is the staleness floor every layer of the stack applies to a
// forecast: the policies, the agent-side truncation, the SeD's admission
// prediction, walltime sizing, DAG pricing and measured-power deployment.
// Models whose confidence has decayed below it are ignored in favour of the
// static fields, so all of them agree on which models are trusted.
const MinConfidence = 0.05

// trusted reports whether the estimate carries a forecast model fitted on
// at least one solve and still trusted at MinConfidence.
func (e *Estimate) trusted() bool {
	return e.HasForecast && e.ForecastSamples > 0 && e.ForecastConfidence >= MinConfidence
}

// TrustedDrainSeconds returns the forecast drain time of the server's
// accepted work when the estimate carries a trusted model; ok is false when
// the caller must fall back to its own queue-based approximation.
func (e *Estimate) TrustedDrainSeconds() (float64, bool) {
	if !e.trusted() || e.PendingWorkSeconds < 0 {
		return 0, false
	}
	return e.PendingWorkSeconds, true
}

// PredictSeconds predicts how long work GFlops would take on this server:
// the trusted model's forecast when it is positive, else work over the
// advertised power (1 GFlops when none is advertised). byModel reports which
// path produced the prediction. The policies, the SeD, walltime sizing, DAG
// pricing and the simulator's mirrored SeD all predict through it.
func (e *Estimate) PredictSeconds(work float64) (seconds float64, byModel bool) {
	if e.trusted() {
		if p := e.ForecastSolveSeconds(work); p > 0 {
			return p, true
		}
	}
	power := e.PowerGFlops
	if power <= 0 {
		power = 1
	}
	return work / power, false
}

// ForecastSolveSeconds predicts how long work GFlops would take on this
// server using the forecast extension; it returns a negative value when the
// estimate carries no usable forecast.
func (e Estimate) ForecastSolveSeconds(workGFlops float64) float64 {
	if !e.HasForecast || e.ForecastSamples == 0 {
		return -1
	}
	if workGFlops > 0 && e.ForecastPerGFlopS > 0 {
		if p := e.ForecastBaseS + e.ForecastPerGFlopS*workGFlops; p > 0 {
			return p
		}
	}
	return e.EWMASolveSeconds
}

// Request describes the work to place.
type Request struct {
	Service    string
	Seq        int     // client-side sequence number
	WorkGFlops float64 // caller's work estimate; 0 if unknown
}

// Policy ranks candidate servers for a request, best first. Implementations
// must be deterministic given their own state and safe for concurrent use.
//
// Every policy here starts from the candidates in ServerID order (duplicate
// IDs keep the order they were given in); the scoring policies then compute
// each candidate's score once and sort stably on it, so equal scores stay in
// ServerID order. A NaN score (Inf/Inf in an estimate) ranks after every
// number, NaNs among themselves in ServerID order.
type Policy interface {
	Name() string
	// Rank returns indices into ests ordered from most to least preferred.
	Rank(req Request, ests []Estimate) []int
}

// byServerID returns index order sorted by ServerID, the deterministic base
// ordering every policy starts from.
func byServerID(ests []Estimate) []int {
	idx := make([]int, len(ests))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(ests[a].ServerID, ests[b].ServerID); c != 0 {
			return c
		}
		return a - b
	})
	return idx
}

// scoredIndex is one candidate's sort key: its index into ests and its score.
type scoredIndex struct {
	idx   int
	score float64
}

// byScore orders keys by ascending score, NaN last.
func byScore(a, b scoredIndex) int {
	if an, bn := math.IsNaN(a.score), math.IsNaN(b.score); an != bn {
		if an {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.score, b.score)
}

// rankByScore is the body of every scoring policy: lower score first, ties
// in ServerID order. score runs once per candidate, on the estimate in place.
func rankByScore(ests []Estimate, score func(e *Estimate) float64) []int {
	order := byServerID(ests)
	keys := make([]scoredIndex, len(order))
	for i, idx := range order {
		keys[i] = scoredIndex{idx: idx, score: score(&ests[idx])}
	}
	slices.SortStableFunc(keys, byScore)
	for i := range keys {
		order[i] = keys[i].idx
	}
	return order
}

// RoundRobin reproduces DIET's default behaviour in the paper's experiment:
// with no execution history the agent can do no better than to "share the
// total amount of requests on the available SeDs", handing them out in
// rotation. The rotation counter is per-service.
type RoundRobin struct {
	mu       sync.Mutex
	counters map[string]int
}

// NewRoundRobin returns a fresh rotation state.
func NewRoundRobin() *RoundRobin { return &RoundRobin{counters: make(map[string]int)} }

// Name implements Policy.
func (r *RoundRobin) Name() string { return "roundrobin" }

// Rank implements Policy.
func (r *RoundRobin) Rank(req Request, ests []Estimate) []int {
	base := byServerID(ests)
	if len(base) == 0 {
		return base
	}
	r.mu.Lock()
	c := r.counters[req.Service]
	r.counters[req.Service] = c + 1
	r.mu.Unlock()
	out := make([]int, len(base))
	for i := range base {
		out[i] = base[(c+i)%len(base)]
	}
	return out
}

// Random picks a seeded-random order; a baseline for the ablation.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a Random policy with the given seed.
func NewRandom(seed int64) *Random { return &Random{rng: rand.New(rand.NewSource(seed))} }

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Rank implements Policy.
func (r *Random) Rank(req Request, ests []Estimate) []int {
	base := byServerID(ests)
	r.mu.Lock()
	r.rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	r.mu.Unlock()
	return base
}

// defaultWorkGFlops is the work assumed when a request carries no estimate:
// ~20 TFlop, ≈1.4 h on a 4-GFlops Opteron.
const defaultWorkGFlops = 20000

// work is the request's work estimate, defaultWorkGFlops when it has none.
func (r Request) work() float64 {
	if r.WorkGFlops <= 0 {
		return defaultWorkGFlops
	}
	return r.WorkGFlops
}

// defaultSolveSeconds is the solve time MCT assumes for a server with no
// history.
const defaultSolveSeconds = 3600

// MCT (minimum completion time) ranks servers by the estimated time until a
// newly queued request would finish, using each server's last observed solve
// time. With no history it degrades to least-loaded.
type MCT struct{}

// NewMCT returns an MCT policy.
func NewMCT() *MCT { return &MCT{} }

// Name implements Policy.
func (m *MCT) Name() string { return "mct" }

// Rank implements Policy.
func (m *MCT) Rank(req Request, ests []Estimate) []int {
	return rankByScore(ests, func(e *Estimate) float64 {
		st := e.LastSolveSeconds
		if st <= 0 {
			st = defaultSolveSeconds
		}
		pending := float64(e.QueueLen + e.Running + 1)
		cap := float64(e.Capacity)
		if cap < 1 {
			cap = 1
		}
		return pending * st / cap
	})
}

// PowerAware is the plug-in the paper proposes as future work (§8): it maps
// requests "according to the processing power" by estimating completion time
// as (work × pending) / GFlops. It removes the Toulouse-vs-Nancy imbalance
// of Figure 5.
type PowerAware struct{}

// NewPowerAware returns a PowerAware policy.
func NewPowerAware() *PowerAware { return &PowerAware{} }

// Name implements Policy.
func (p *PowerAware) Name() string { return "poweraware" }

// Rank implements Policy.
func (p *PowerAware) Rank(req Request, ests []Estimate) []int {
	work := req.work()
	return rankByScore(ests, func(e *Estimate) float64 {
		power := e.PowerGFlops
		if power <= 0 {
			power = 1
		}
		pending := float64(e.QueueLen + e.Running + 1)
		cap := float64(e.Capacity)
		if cap < 1 {
			cap = 1
		}
		return pending * work / power / cap
	})
}

// ByName constructs a policy from its canonical name; the experiment harness
// and the dietagent binary use it for their -scheduler flags.
func ByName(name string, seed int64) (Policy, error) {
	switch name {
	case "roundrobin", "rr", "":
		return NewRoundRobin(), nil
	case "random":
		return NewRandom(seed), nil
	case "mct":
		return NewMCT(), nil
	case "poweraware", "plugin":
		return NewPowerAware(), nil
	case "forecastaware", "forecast":
		return NewForecastAware(), nil
	case "contentionaware", "contention":
		return NewContentionAware(), nil
	}
	return nil, fmt.Errorf("scheduler: unknown policy %q (want roundrobin, random, mct, poweraware, forecastaware or contentionaware)", name)
}
