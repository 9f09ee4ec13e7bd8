package platform

import (
	"fmt"
	"testing"
	"time"
)

func TestGrid5000Shape(t *testing.T) {
	p := Grid5000()
	if len(p.Sites) != 5 {
		t.Fatalf("%d sites, want 5 (paper §6.1)", len(p.Sites))
	}
	clusters := 0
	for _, s := range p.Sites {
		clusters += len(s.Clusters)
		for _, c := range s.Clusters {
			if c.Nodes <= 0 || c.CPU.GFlops <= 0 {
				t.Errorf("cluster %s badly sized: %+v", c.Name, c)
			}
			if c.Site != s.Name {
				t.Errorf("cluster %s claims site %s inside %s", c.Name, c.Site, s.Name)
			}
		}
	}
	if clusters != 6 {
		t.Errorf("%d clusters, want 6", clusters)
	}
	// Lyon has the two clusters.
	lyon := p.Sites[0]
	if lyon.Name != "Lyon" || len(lyon.Clusters) != 2 {
		t.Errorf("Lyon should host 2 clusters, got %+v", lyon)
	}
}

func TestClusterByName(t *testing.T) {
	p := Grid5000()
	c, err := p.ClusterByName("violette")
	if err != nil || c.Site != "Toulouse" {
		t.Errorf("violette: %+v, %v", c, err)
	}
	if _, err := p.ClusterByName("ghost"); err == nil {
		t.Error("unknown cluster should fail")
	}
}

func TestLatencyModel(t *testing.T) {
	p := Grid5000()
	if l := p.Latency("Lyon", "Lyon"); l != p.LANLatency {
		t.Errorf("intra-site latency %v", l)
	}
	if l := p.Latency("Lyon", "Nancy"); l != p.WANLatency {
		t.Errorf("inter-site latency %v", l)
	}
}

func TestTransferTime(t *testing.T) {
	p := Grid5000()
	// Zero bytes = pure latency.
	if tt := p.TransferTime("Lyon", "Nancy", 0); tt != p.WANLatency {
		t.Errorf("zero-size transfer %v", tt)
	}
	// 125 MB over 1 Gb/s ≈ 1 s + latency.
	tt := p.TransferTime("Lyon", "Nancy", 125)
	want := p.WANLatency + time.Second
	if tt < want-10*time.Millisecond || tt > want+10*time.Millisecond {
		t.Errorf("125MB transfer %v, want ≈ %v", tt, want)
	}
	// Bigger payloads take longer.
	if p.TransferTime("Lyon", "Nancy", 200) <= tt {
		t.Error("transfer time must grow with size")
	}
}

func TestPaperDeployment(t *testing.T) {
	d := PaperDeployment()
	if d.MASite != "Lyon" {
		t.Errorf("MA at %s, want Lyon", d.MASite)
	}
	if len(d.LAs) != 6 {
		t.Errorf("%d LAs, want 6", len(d.LAs))
	}
	if len(d.SeDs) != 11 {
		t.Errorf("%d SeDs, want 11", len(d.SeDs))
	}
	// The Figure 5 legend names, each controlling 16 machines.
	wantNames := map[string]bool{
		"Nancy1": true, "Nancy2": true, "Sophia1": true, "Sophia2": true,
		"Lille1": true, "Lille2": true, "Toulouse1": true, "Toulouse2": true,
		"Lyon1-cap": true, "Lyon1-sag": true, "Lyon2-sag": true,
	}
	capCount := 0
	for _, s := range d.SeDs {
		if !wantNames[s.Name] {
			t.Errorf("unexpected SeD %q", s.Name)
		}
		if s.Machines != 16 {
			t.Errorf("SeD %s controls %d machines, want 16", s.Name, s.Machines)
		}
		if s.Cluster == "capricorne" {
			capCount++
		}
	}
	// Lyon capricorne hosts only one SeD (reservation restrictions, §6.1).
	if capCount != 1 {
		t.Errorf("capricorne hosts %d SeDs, want 1", capCount)
	}
}

func TestPowerOrdering(t *testing.T) {
	// The Figure 5 shape: Toulouse slowest, Nancy fastest.
	d := PaperDeployment()
	var toulouse, nancy float64
	for _, s := range d.SeDs {
		switch s.Name {
		case "Toulouse1":
			toulouse = s.PowerGFlops()
		case "Nancy1":
			nancy = s.PowerGFlops()
		}
	}
	if toulouse <= 0 || nancy <= 0 {
		t.Fatal("missing SeDs")
	}
	if nancy <= toulouse {
		t.Errorf("Nancy (%g) must out-power Toulouse (%g)", nancy, toulouse)
	}
	ratio := toulouse / nancy
	// Paper: ~10.5h vs ~15h → ratio ≈ 0.7.
	if ratio < 0.6 || ratio > 0.85 {
		t.Errorf("power ratio %g outside the Figure 5 range [0.6, 0.85]", ratio)
	}
}

func TestSiteOfSeD(t *testing.T) {
	d := PaperDeployment()
	site, err := d.SiteOfSeD("Lyon1-cap")
	if err != nil || site != "Lyon" {
		t.Errorf("SiteOfSeD = %q, %v", site, err)
	}
	if _, err := d.SiteOfSeD("ghost"); err == nil {
		t.Error("unknown SeD should fail")
	}
}

func TestCPUTable(t *testing.T) {
	cpus := []CPU{Opteron246, Opteron248, Opteron250, Opteron252, Opteron275}
	for i := 1; i < len(cpus)-1; i++ {
		if cpus[i].GFlops <= cpus[i-1].GFlops {
			t.Errorf("%s should out-perform %s", cpus[i].Model, cpus[i-1].Model)
		}
	}
	// The dual-core 275 beats the single-core parts.
	if Opteron275.GFlops <= Opteron252.GFlops {
		t.Error("Opteron 275 (dual core) should lead the table")
	}
}

// SiteOfSeD returns the site hosting the named SeD.
func (d Deployment) SiteOfSeD(name string) (string, error) {
	for _, s := range d.SeDs {
		if s.Name == name {
			return s.Site, nil
		}
	}
	return "", fmt.Errorf("platform: no SeD %q in deployment", name)
}
