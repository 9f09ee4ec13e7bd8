package scheduler

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps Rank as every policy computed it before the score-once
// rewrite — a stable sort whose comparator re-scores both candidates on each
// comparison — as the oracle the rewritten policies are checked against. The
// only departure is oracleByServerID, stable where the old one was not: with
// duplicate ServerIDs the old order was whatever sort.Slice left, and the
// rule is now "in the order given".

func oracleByServerID(ests []Estimate) []int {
	idx := make([]int, len(ests))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ests[idx[a]].ServerID < ests[idx[b]].ServerID })
	return idx
}

func oracleSort(ests []Estimate, score func(e Estimate) float64) []int {
	base := oracleByServerID(ests)
	sort.SliceStable(base, func(a, b int) bool { return score(ests[base[a]]) < score(ests[base[b]]) })
	return base
}

// oracleTrustedDrain is TrustedDrainSeconds as it was, with the floor a
// parameter.
func oracleTrustedDrain(e Estimate, minConfidence float64) (float64, bool) {
	if !e.HasForecast || e.ForecastSamples == 0 ||
		e.ForecastConfidence < minConfidence || e.PendingWorkSeconds < 0 {
		return 0, false
	}
	return e.PendingWorkSeconds, true
}

// oracleForecastDur is forecastDur, the policies' duration prediction before
// Estimate.PredictSeconds replaced it.
func oracleForecastDur(e Estimate, work, minConfidence float64) float64 {
	if e.HasForecast && e.ForecastSamples > 0 && e.ForecastConfidence >= minConfidence {
		if p := e.ForecastSolveSeconds(work); p > 0 {
			return p
		}
	}
	power := e.PowerGFlops
	if power <= 0 {
		power = 1
	}
	return work / power
}

// oracleScore returns the old scoring closure of a scoring policy, nil for
// the two policies that do not score.
func oracleScore(p Policy, req Request) func(e Estimate) float64 {
	work := req.WorkGFlops
	if work <= 0 {
		work = 20000
	}
	capOf := func(e Estimate) float64 {
		if cap := float64(e.Capacity); cap >= 1 {
			return cap
		}
		return 1
	}
	switch p.(type) {
	case *MCT:
		return func(e Estimate) float64 {
			st := e.LastSolveSeconds
			if st <= 0 {
				st = 3600
			}
			pending := float64(e.QueueLen + e.Running + 1)
			return pending * st / capOf(e)
		}
	case *PowerAware:
		return func(e Estimate) float64 {
			power := e.PowerGFlops
			if power <= 0 {
				power = 1
			}
			pending := float64(e.QueueLen + e.Running + 1)
			return pending * work / power / capOf(e)
		}
	case *ForecastAware:
		return func(e Estimate) float64 {
			pending := float64(e.QueueLen + e.Running + 1)
			return pending*oracleForecastDur(e, work, 0.05)/capOf(e) + e.InputTransferSeconds
		}
	case *ContentionAware:
		return func(e Estimate) float64 {
			dur := oracleForecastDur(e, work, 0.05)
			wait, trusted := oracleTrustedDrain(e, 0.05)
			if !trusted {
				wait = float64(e.QueueLen+e.Running) * dur / capOf(e)
			}
			return wait + dur + e.InputTransferSeconds
		}
	}
	return nil
}

// oracle ranks with the old bodies; it carries the rotation counters and the
// random stream the two stateful policies keep, advanced call for call.
type oracle struct {
	counters map[string]int
	rng      *rand.Rand
}

const oracleSeed = 42

func newOracle() *oracle {
	return &oracle{counters: make(map[string]int), rng: rand.New(rand.NewSource(oracleSeed))}
}

func (o *oracle) rank(p Policy, req Request, ests []Estimate) []int {
	switch p.(type) {
	case *RoundRobin:
		base := oracleByServerID(ests)
		if len(base) == 0 {
			return base
		}
		c := o.counters[req.Service]
		o.counters[req.Service] = c + 1
		out := make([]int, len(base))
		for i := range base {
			out[i] = base[(c+i)%len(base)]
		}
		return out
	case *Random:
		base := oracleByServerID(ests)
		o.rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
		return base
	}
	return oracleSort(ests, oracleScore(p, req))
}

func oraclePolicies() []Policy {
	return []Policy{NewRoundRobin(), NewRandom(oracleSeed), NewMCT(), NewPowerAware(), NewForecastAware(), NewContentionAware()}
}

// checkAgainstOracle ranks ests with every policy and with its oracle. Where
// no score is NaN the two must be equal. The old comparator had no consistent
// answer for a NaN, so there the rule is checked instead: the candidates with
// a number rank as the oracle ranks them alone, and the NaN ones follow in
// ServerID order.
func checkAgainstOracle(t *testing.T, reqs []Request, ests []Estimate) {
	t.Helper()
	for _, p := range oraclePolicies() {
		o := newOracle()
		for _, req := range reqs {
			got := p.Rank(req, ests)
			if !isPermutation(got, len(ests)) {
				t.Fatalf("%s: %v is not a permutation of 0..%d", p.Name(), got, len(ests)-1)
			}
			var numbered []Estimate // the candidates whose score is a number
			var numberedIdx, nanIdx []int
			if score := oracleScore(p, req); score != nil {
				for _, i := range oracleByServerID(ests) {
					if math.IsNaN(score(ests[i])) {
						nanIdx = append(nanIdx, i)
					}
				}
				if len(nanIdx) > 0 {
					for i := range ests {
						if !math.IsNaN(score(ests[i])) {
							numbered = append(numbered, ests[i])
							numberedIdx = append(numberedIdx, i)
						}
					}
				}
			}
			var want []int
			if len(nanIdx) == 0 {
				want = o.rank(p, req, ests)
			} else {
				for _, i := range o.rank(p, req, numbered) {
					want = append(want, numberedIdx[i])
				}
				want = append(want, nanIdx...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s ranks %v, oracle %v (%d NaN scores)\nestimates %+v", p.Name(), got, want, len(nanIdx), ests)
				}
			}
		}
	}
}

// oddFloats are the values estimate fields are drawn from: ordinary powers
// and durations, repeated so that scores tie, and the ones arithmetic trips
// over.
var oddFloats = []float64{0, 1, 1, 40, 40, 63.8, 3600, 20000, -1, -40, 1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}

// estimatesFrom decodes arbitrary bytes into n estimates; the bytes are read
// round and round, so any input yields a full list. Server names come from
// six letters, so duplicates are common.
func estimatesFrom(n int, data []byte) []Estimate {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	float := func() float64 { return oddFloats[next()%len(oddFloats)] }
	out := make([]Estimate, n)
	for i := range out {
		flags := next()
		out[i] = Estimate{
			ServerID:             string(rune('A' + next()%6)),
			Service:              "svc",
			Capacity:             next()%5 - 1,
			Running:              next() % 2,
			QueueLen:             next() % 8,
			PowerGFlops:          float(),
			LastSolveSeconds:     float(),
			InputTransferSeconds: []float64{0, 0, 0, 12.5, math.Inf(1)}[next()%5],
		}
		if flags&1 != 0 { // absent when clear
			out[i].HasForecast = true
			out[i].ForecastSamples = next() % 3
			out[i].EWMASolveSeconds = float()
			out[i].ForecastBaseS = float()
			out[i].ForecastPerGFlopS = float()
			out[i].ForecastConfidence = []float64{0, 0.01, 0.05, 0.5, 1}[next()%5] // the first two are stale
			out[i].PendingWorkSeconds = float()
		}
	}
	return out
}

var oracleRequests = []Request{
	{Service: "svc", Seq: 1, WorkGFlops: 1000},
	{Service: "svc", Seq: 2},
	{Service: "other", Seq: 3, WorkGFlops: math.Inf(1)},
	{Service: "svc", Seq: 4, WorkGFlops: 20000},
}

func TestRankEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 11, 64} {
		for round := 0; round < 50; round++ {
			data := make([]byte, 16*n+1)
			rng.Read(data)
			checkAgainstOracle(t, oracleRequests, estimatesFrom(n, data))
		}
		// The platforms the other tests and the benchmarks rank.
		checkAgainstOracle(t, oracleRequests, benchEstimates(n))
	}
	checkAgainstOracle(t, oracleRequests, ests(11))
}

// TestRankTieAndNaNRules pins the two orders the old code left open.
func TestRankTieAndNaNRules(t *testing.T) {
	twins := []Estimate{
		{ServerID: "B", PowerGFlops: 10, Capacity: 1},
		{ServerID: "A", PowerGFlops: 10, Capacity: 1},
		{ServerID: "A", PowerGFlops: 10, Capacity: 1},
		{ServerID: "A", PowerGFlops: 10, Capacity: 1},
	}
	for i := 0; i < 20; i++ {
		if got := byServerID(twins); got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 {
			t.Fatalf("duplicate ServerIDs ranked %v, want [1 2 3 0]", got)
		}
	}
	// Inf work on an Inf-power server scores NaN.
	inf := math.Inf(1)
	mixed := []Estimate{
		{ServerID: "A", PowerGFlops: inf, Capacity: 1},
		{ServerID: "B", PowerGFlops: 10, Capacity: 1},
		{ServerID: "C", PowerGFlops: inf, Capacity: 1},
		{ServerID: "D", PowerGFlops: 20, Capacity: 1},
	}
	got := NewPowerAware().Rank(Request{Service: "svc", WorkGFlops: inf}, mixed)
	if want := []int{1, 3, 0, 2}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("NaN scores ranked %v, want %v", got, want)
	}
}

func FuzzRank(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{1, 2, 3})
	f.Add(uint8(11), []byte("the paper's platform ranks eleven SeDs"))
	f.Add(uint8(64), []byte{255, 13, 14, 12, 13, 0, 1, 14, 14, 13, 12, 3, 77, 91})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		checkAgainstOracle(t, oracleRequests, estimatesFrom(int(n)%65, data))
	})
}
