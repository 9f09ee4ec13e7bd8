package diet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rpc"
)

func TestCollectNTruncatesPerAgent(t *testing.T) {
	// MA over 2 LAs × 3 SeDs: with Limit 1 each LA returns its single best
	// SeD, so the MA sees exactly 2 estimates from 6 servers — bounded
	// reply traffic, DIET's distributed-scheduling scalability claim.
	rpc.ResetLocal()
	var seds []SeDSpec
	for la := 1; la <= 2; la++ {
		for i := 1; i <= 3; i++ {
			seds = append(seds, SeDSpec{
				Name:   fmt.Sprintf("SeD-cn-%d-%d", la, i),
				Parent: fmt.Sprintf("LA%d", la),
				// Power rises with i so the "best" per LA is predictable.
				PowerGFlops: float64(10 * i),
				Services:    []ServiceSpec{sleepService("double", 0, nil)},
			})
		}
	}
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-cn", LAs: []string{"LA1", "LA2"}, SeDs: seds, Local: true,
	})

	all := d.MA.CollectN("double", 0)
	if len(all) != 6 {
		t.Fatalf("unbounded collect returned %d, want 6", len(all))
	}
	top := d.MA.CollectN("double", 1)
	// The MA's own truncation keeps 1 overall; each LA already truncated
	// to 1 before replying.
	if len(top) != 1 {
		t.Fatalf("CollectN(1) returned %d, want 1", len(top))
	}
	// With equal (zero) queues the local rank prefers highest power: the
	// survivor must be one of the i=3 SeDs.
	if top[0].PowerGFlops != 30 {
		t.Errorf("survivor %s has power %g, want the 30-GFlops SeD",
			top[0].ServerID, top[0].PowerGFlops)
	}
}

func TestCollectNPrefersIdleServers(t *testing.T) {
	rpc.ResetLocal()
	d := newTestDeployment(t, DeploymentSpec{
		MAName: "MA-cn2", LAs: []string{"LA1"},
		SeDs: []SeDSpec{
			{Name: "SeD-cn2-a", Parent: "LA1", PowerGFlops: 100, Services: []ServiceSpec{sleepService("double", 0, nil)}},
			{Name: "SeD-cn2-b", Parent: "LA1", PowerGFlops: 10, Services: []ServiceSpec{sleepService("double", 0, nil)}},
		},
		Local: true,
	})
	// Jam the powerful SeD's queue with a slow call so it reports load.
	block := make(chan struct{})
	descSlow, _ := NewProfileDesc("block", 0, 0, 0)
	d.SeDs[0].AddService(descSlow, func(*Profile) error { <-block; return nil })
	pBlock, _ := NewProfile("block", 0, 0, 0)
	go d.SeDs[0].Solve(pBlock)
	defer close(block)

	// Wait until the SeD reports the running solve (the solve goroutine may
	// not have been scheduled yet).
	deadline := time.Now().Add(5 * time.Second)
	for d.SeDs[0].Estimate("double").Est.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocking solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	top := d.MA.CollectN("double", 1)
	if len(top) != 1 || top[0].ServerID != "SeD-cn2-b" {
		t.Errorf("busy server survived truncation: %+v", top)
	}
}
