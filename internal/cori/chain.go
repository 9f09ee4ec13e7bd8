package cori

import (
	"fmt"

	"repro/internal/scheduler"
)

// This file prices dependency chains: it turns the per-service duration
// forecasts the monitors produce into the critical-path weights a workflow
// scheduler dispatches by. Both the live runner (internal/workflow) and the
// virtual-time mirror (internal/simgrid) share these helpers, so the A11
// ablation measures exactly the arithmetic the live campaigns run.

// BestEstimateSeconds prices workGFlops of one service from a collected
// estimate vector: the cheapest scheduler.Estimate.PredictSeconds across the
// offered servers, a model-priced answer winning a tie. byModel reports
// whether the winning price came from a trusted model — the
// "forecast-priced" signal the workflow runner surfaces per dispatch.
func BestEstimateSeconds(ests []scheduler.Estimate, workGFlops float64) (seconds float64, byModel bool) {
	for i := range ests {
		sec, model := ests[i].PredictSeconds(workGFlops)
		if i == 0 || sec < seconds || (sec == seconds && model && !byModel) {
			seconds, byModel = sec, model
		}
	}
	return seconds, byModel
}

// ChainPrices computes, for every node of a DAG, the price of its longest
// downstream chain: seconds[node] plus the most expensive chain among the
// nodes that depend on it. Launching ready nodes in decreasing order of this
// quantity is critical-path-first scheduling — the longest forecast-weighted
// chain advances first while cheaper branches overlap it. dependents maps a
// node to the nodes that depend on it; every referenced node must have an
// entry in seconds, and a cycle is an error.
func ChainPrices(seconds map[string]float64, dependents map[string][]string) (map[string]float64, error) {
	out := make(map[string]float64, len(seconds))
	const (
		onStack = 1
		done    = 2
	)
	state := make(map[string]int, len(seconds))
	var visit func(id string) (float64, error)
	visit = func(id string) (float64, error) {
		if _, ok := seconds[id]; !ok {
			return 0, fmt.Errorf("cori: chain pricing: unknown node %q", id)
		}
		switch state[id] {
		case done:
			return out[id], nil
		case onStack:
			return 0, fmt.Errorf("cori: chain pricing: cycle through %q", id)
		}
		state[id] = onStack
		best := 0.0
		for _, dep := range dependents[id] {
			v, err := visit(dep)
			if err != nil {
				return 0, err
			}
			if v > best {
				best = v
			}
		}
		out[id] = seconds[id] + best
		state[id] = done
		return out[id], nil
	}
	for id := range seconds {
		if _, err := visit(id); err != nil {
			return nil, err
		}
	}
	return out, nil
}
