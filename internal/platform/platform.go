// Package platform models the hardware the paper ran on: Grid'5000, the
// French research grid — sites connected by the RENATER network, clusters of
// AMD Opteron nodes, and the paper's exact deployment of 1 Master Agent, 6
// Local Agents and 11 SeDs each controlling 16 machines (§6.1). The
// discrete-event simulator consumes this model to regenerate the paper's
// measurements at full scale.
package platform

import (
	"fmt"
	"time"
)

// CPU is a processor model with its sustained floating-point rate.
type CPU struct {
	Model  string
	GHz    float64
	GFlops float64 // sustained per-core rate for the PM workload
}

// The Opteron SKUs the paper lists (§6.1). Sustained GFlops follow the
// 2 flop/cycle SSE2 peak of the K8 core scaled by clock; the 275 is the
// dual-core part, which helps the MPI solver and is credited accordingly.
var (
	Opteron246 = CPU{Model: "Opteron 246", GHz: 2.0, GFlops: 4.0}
	Opteron248 = CPU{Model: "Opteron 248", GHz: 2.2, GFlops: 4.4}
	Opteron250 = CPU{Model: "Opteron 250", GHz: 2.4, GFlops: 4.8}
	Opteron252 = CPU{Model: "Opteron 252", GHz: 2.6, GFlops: 5.2}
	Opteron275 = CPU{Model: "Opteron 275", GHz: 2.2, GFlops: 5.7} // 2×2.2 GHz cores, MPI-efficiency ~0.65
)

// Cluster is one homogeneous set of nodes at a site.
type Cluster struct {
	Name  string
	Site  string
	Nodes int
	CPU   CPU
}

// Site is one Grid'5000 location.
type Site struct {
	Name     string
	Clusters []Cluster
}

// Platform is the full grid: sites plus the wide-area network between them.
type Platform struct {
	Sites []Site
	// WANLatency is the one-way latency between two distinct sites.
	WANLatency time.Duration
	// LANLatency is the one-way latency inside a site.
	LANLatency time.Duration
	// WANBandwidthMbps is the RENATER backbone rate (1 Gb/s in 2007).
	WANBandwidthMbps float64
}

// Grid5000 returns the five-site, six-cluster platform of the experiment:
// two clusters in Lyon (capricorne: Opteron 246, sagittaire: Opteron 250)
// and one each in Lille (248), Nancy (275), Toulouse (246) and Sophia (252).
// CPU assignments follow the Grid'5000 inventory of the era, arranged so the
// fastest cluster (Nancy) and the slowest (Toulouse) match the paper's
// Figure 5 ordering.
func Grid5000() *Platform {
	return &Platform{
		Sites: []Site{
			{Name: "Lyon", Clusters: []Cluster{
				{Name: "capricorne", Site: "Lyon", Nodes: 56, CPU: Opteron246},
				{Name: "sagittaire", Site: "Lyon", Nodes: 79, CPU: Opteron250},
			}},
			{Name: "Lille", Clusters: []Cluster{
				{Name: "chti", Site: "Lille", Nodes: 53, CPU: Opteron248},
			}},
			{Name: "Nancy", Clusters: []Cluster{
				{Name: "grillon", Site: "Nancy", Nodes: 47, CPU: Opteron275},
			}},
			{Name: "Toulouse", Clusters: []Cluster{
				{Name: "violette", Site: "Toulouse", Nodes: 57, CPU: Opteron246},
			}},
			{Name: "Sophia", Clusters: []Cluster{
				{Name: "helios", Site: "Sophia", Nodes: 56, CPU: Opteron252},
			}},
		},
		WANLatency:       8 * time.Millisecond,
		LANLatency:       100 * time.Microsecond,
		WANBandwidthMbps: 1000,
	}
}

// ClusterByName finds a cluster.
func (p *Platform) ClusterByName(name string) (*Cluster, error) {
	for si := range p.Sites {
		for ci := range p.Sites[si].Clusters {
			if p.Sites[si].Clusters[ci].Name == name {
				return &p.Sites[si].Clusters[ci], nil
			}
		}
	}
	return nil, fmt.Errorf("platform: no cluster %q", name)
}

// Latency returns the one-way latency between two sites.
func (p *Platform) Latency(siteA, siteB string) time.Duration {
	if siteA == siteB {
		return p.LANLatency
	}
	return p.WANLatency
}

// TransferTime returns the time to move sizeMB across the WAN between two
// sites (latency + size/bandwidth).
func (p *Platform) TransferTime(siteA, siteB string, sizeMB float64) time.Duration {
	lat := p.Latency(siteA, siteB)
	secs := sizeMB * 8 / p.WANBandwidthMbps
	return lat + time.Duration(secs*float64(time.Second))
}

// SeDPlacement places one SeD on a cluster with a machine reservation.
type SeDPlacement struct {
	Name     string
	Site     string
	Cluster  string
	Machines int // machines under this SeD (paper: 16 per SeD)
	CPU      CPU
}

// PowerGFlops is the aggregate power this SeD brings to one MPI solve: the
// per-core rate times the machines it controls, derated by a parallel
// efficiency of 0.7 (communication and AMR load imbalance).
func (s SeDPlacement) PowerGFlops() float64 {
	const parallelEfficiency = 0.7
	return s.CPU.GFlops * float64(s.Machines) * parallelEfficiency
}

// LAPlacement describes one Local Agent.
type LAPlacement struct {
	Name string
	Site string
}

// Deployment is a DIET hierarchy placed on the platform.
type Deployment struct {
	MASite string
	LAs    []LAPlacement
	SeDs   []SeDPlacement
}

// PaperDeployment reproduces §6.1 exactly: the MA (with omniORB, monitoring
// tools and the client) on one node in Lyon; one LA per cluster — two in
// Lyon, one each in Lille, Nancy, Toulouse, Sophia; and eleven SeDs, two per
// cluster except Lyon capricorne which could only host one due to
// reservation restrictions, each controlling 16 machines. The SeD names are
// the Figure 5 legend labels.
func PaperDeployment() Deployment {
	g5k := Grid5000()
	mk := func(name, cluster string) SeDPlacement {
		c, err := g5k.ClusterByName(cluster)
		if err != nil {
			panic(err) // deployment tables are static; a typo is a programmer error
		}
		return SeDPlacement{Name: name, Site: c.Site, Cluster: cluster, Machines: 16, CPU: c.CPU}
	}
	return Deployment{
		MASite: "Lyon",
		LAs: []LAPlacement{
			{Name: "LA-Lyon-capricorne", Site: "Lyon"},
			{Name: "LA-Lyon-sagittaire", Site: "Lyon"},
			{Name: "LA-Lille", Site: "Lille"},
			{Name: "LA-Nancy", Site: "Nancy"},
			{Name: "LA-Toulouse", Site: "Toulouse"},
			{Name: "LA-Sophia", Site: "Sophia"},
		},
		SeDs: []SeDPlacement{
			mk("Nancy1", "grillon"),
			mk("Nancy2", "grillon"),
			mk("Sophia1", "helios"),
			mk("Sophia2", "helios"),
			mk("Lille1", "chti"),
			mk("Lille2", "chti"),
			mk("Toulouse1", "violette"),
			mk("Toulouse2", "violette"),
			mk("Lyon1-cap", "capricorne"),
			mk("Lyon1-sag", "sagittaire"),
			mk("Lyon2-sag", "sagittaire"),
		},
	}
}
