// Package deploy plans a DIET hierarchy onto a physical platform — the
// GoDIET role. The paper notes (§3.1) that "for performance reasons, the
// hierarchy of agents should be deployed depending on the underlying network
// topology"; this package encodes that rule — Master Agent at the client's
// site, one Local Agent per cluster, SeDs under their cluster's LA — scores
// plans by the wide-area traffic each scheduling request costs, and renders
// them as the shell commands that launch the dietagent/dietsed binaries
// across machines.
//
// Plans can be static (advertised node powers, the paper's hand-planned
// hierarchy) or measured: an optional CapabilitySource feeds each SeD's
// CoRI-observed delivered power (cori.Model.DeliveredGFlops) into planning,
// blended with the advertised figure by measurement confidence, so
// re-deployments place SeDs where delivered — not advertised — throughput
// is. Replan diffs the two and reports which placements training would
// change.
package deploy

import (
	"fmt"
	"sort"

	"repro/internal/platform"
)

// Node is one planned component.
type Node struct {
	Name    string
	Kind    string // "naming", "MA", "LA", "SeD"
	Site    string
	Cluster string // SeDs only
	Parent  string // LAs point at the MA, SeDs at their LA
	// Power is the effective processing power planning placed this node by:
	// the advertised figure in a static plan, the confidence-weighted blend
	// of measurement and advertisement in a measured plan. It is what
	// Commands hand the live deployment as the SeD's advertised power.
	Power float64
	// MeasuredGFlops and Confidence record the capability the blend used
	// (both 0 in a static plan or when the source had nothing trusted).
	MeasuredGFlops float64
	Confidence     float64
}

// Plan is a complete deployment layout.
type Plan struct {
	Naming Node
	MA     Node
	LAs    []Node
	SeDs   []Node
}

// TopologyWith builds the paper's topology-aware plan from a platform
// deployment: the MA (and naming service) on the MA site, one LA per
// distinct cluster hosting SeDs, each SeD under its cluster's LA. When opts
// carries a CapabilitySource the SeDs are placed by effective
// (measured-blend) power and listed best-first, so Commands advertise
// delivered throughput to the schedulers instead of the deployment file's
// guess.
func TopologyWith(d platform.Deployment, opts Options) (*Plan, error) {
	if len(d.SeDs) == 0 {
		return nil, fmt.Errorf("deploy: deployment has no SeDs")
	}
	p := &Plan{
		Naming: Node{Name: "naming", Kind: "naming", Site: d.MASite},
		MA:     Node{Name: "MA1", Kind: "MA", Site: d.MASite},
	}
	laByCluster := make(map[string]string)
	for _, s := range d.SeDs {
		if _, ok := laByCluster[s.Cluster]; !ok {
			la := "LA-" + s.Cluster
			laByCluster[s.Cluster] = la
			p.LAs = append(p.LAs, Node{Name: la, Kind: "LA", Site: s.Site, Parent: p.MA.Name})
		}
	}
	sort.Slice(p.LAs, func(i, j int) bool { return p.LAs[i].Name < p.LAs[j].Name })
	for _, s := range d.SeDs {
		eff, measured, conf := opts.effective(s.Name, s.PowerGFlops())
		p.SeDs = append(p.SeDs, Node{
			Name: s.Name, Kind: "SeD", Site: s.Site, Cluster: s.Cluster,
			Parent: laByCluster[s.Cluster], Power: eff,
			MeasuredGFlops: measured, Confidence: conf,
		})
	}
	sortSeDsByPower(p.SeDs)
	return p, nil
}

// FlatWith builds the naive alternative: a single LA co-located with the
// MA, every SeD directly under it — the layout TopologyWith exists to beat.
// opts as for TopologyWith.
func FlatWith(d platform.Deployment, opts Options) (*Plan, error) {
	if len(d.SeDs) == 0 {
		return nil, fmt.Errorf("deploy: deployment has no SeDs")
	}
	p := &Plan{
		Naming: Node{Name: "naming", Kind: "naming", Site: d.MASite},
		MA:     Node{Name: "MA1", Kind: "MA", Site: d.MASite},
		LAs:    []Node{{Name: "LA-flat", Kind: "LA", Site: d.MASite, Parent: "MA1"}},
	}
	for _, s := range d.SeDs {
		eff, measured, conf := opts.effective(s.Name, s.PowerGFlops())
		p.SeDs = append(p.SeDs, Node{
			Name: s.Name, Kind: "SeD", Site: s.Site, Cluster: s.Cluster,
			Parent: "LA-flat", Power: eff,
			MeasuredGFlops: measured, Confidence: conf,
		})
	}
	sortSeDsByPower(p.SeDs)
	return p, nil
}

// sortSeDsByPower lists SeDs by delivered throughput, best first (ties by
// name): the plan's placement order, which Commands preserves.
func sortSeDsByPower(seds []Node) {
	sort.Slice(seds, func(i, j int) bool {
		if seds[i].Power != seds[j].Power {
			return seds[i].Power > seds[j].Power
		}
		return seds[i].Name < seds[j].Name
	})
}

// PowerByName returns the plan's effective SeD powers keyed by name — the
// map the simulator's PlannedPower mirror and reporting tools consume.
func (p *Plan) PowerByName() map[string]float64 {
	out := make(map[string]float64, len(p.SeDs))
	for _, s := range p.SeDs {
		out[s.Name] = s.Power
	}
	return out
}

// ParentByName returns the plan's SeD parent assignments keyed by name —
// the placement map the live-replanning mirror and DiffLive consume.
func (p *Plan) ParentByName() map[string]string {
	out := make(map[string]string, len(p.SeDs))
	for _, s := range p.SeDs {
		out[s.Name] = s.Parent
	}
	return out
}

// WANMessagesPerRequest scores the plan: the number of wide-area messages
// one scheduling request costs during estimate collection (request + reply
// on every link that crosses sites). Lower is better; this is the §3.1
// rationale made quantitative.
func (p *Plan) WANMessagesPerRequest() int {
	siteOf := map[string]string{p.MA.Name: p.MA.Site}
	n := 0
	for _, la := range p.LAs {
		siteOf[la.Name] = la.Site
		if la.Site != p.MA.Site {
			n += 2 // MA → LA request, LA → MA reply
		}
	}
	for _, s := range p.SeDs {
		if s.Site != siteOf[s.Parent] {
			n += 2 // LA → SeD request, SeD → LA reply
		}
	}
	return n
}

// CollectLatency estimates the estimate-collection latency on a platform:
// the slowest MA→LA→SeD round trip, all children queried in parallel.
func (p *Plan) CollectLatency(plat *platform.Platform) float64 {
	siteOf := map[string]string{}
	for _, la := range p.LAs {
		siteOf[la.Name] = la.Site
	}
	worst := 0.0
	for _, s := range p.SeDs {
		laSite := siteOf[s.Parent]
		rtt := 2 * (plat.Latency(p.MA.Site, laSite) + plat.Latency(laSite, s.Site)).Seconds()
		if rtt > worst {
			worst = rtt
		}
	}
	return worst
}

// Commands renders the plan as the shell command lines that launch it across
// machines with the cmd/dietagent and cmd/dietsed binaries; namingAddr is the
// host:port the naming service will listen on.
func (p *Plan) Commands(namingAddr string) []string {
	out := []string{
		fmt.Sprintf("# on %s", p.MA.Site),
		fmt.Sprintf("dietagent -name %s -kind MA -host-naming %s", p.MA.Name, namingAddr),
	}
	for _, la := range p.LAs {
		out = append(out,
			fmt.Sprintf("# on %s", la.Site),
			fmt.Sprintf("dietagent -name %s -kind LA -parent %s -naming %s", la.Name, la.Parent, namingAddr))
	}
	for _, s := range p.SeDs {
		out = append(out,
			fmt.Sprintf("# on %s (%s)", s.Site, s.Cluster),
			fmt.Sprintf("dietsed -name %s -parent %s -naming %s -power %.1f -cluster %s",
				s.Name, s.Parent, namingAddr, s.Power, s.Cluster))
	}
	return out
}
