package simgrid

import (
	"strings"
	"testing"
)

// TestRunDataAblation is the A13 headline: on the default data-heavy sweep,
// pricing input transfers into placement must beat the data-blind arm on BOTH
// makespan and bytes moved. It also guards against the empty config being
// inert — the zero value must run the real default sweep, not a degenerate
// one where the arms trivially tie.
func TestRunDataAblation(t *testing.T) {
	res := RunDataAblation(DataAblationConfig{})

	// Inert-empty-config guard: the default sweep really ran.
	wantSolves := dataDatasets * dataPointsPerDataset
	for _, arm := range []*DataArmResult{res.Blind, res.Aware} {
		if arm.Solves != wantSolves {
			t.Fatalf("%s: %d solves, want %d — empty config ran a degenerate sweep", arm.Strategy, arm.Solves, wantSolves)
		}
		if arm.Transfers == 0 || arm.BytesMovedMB == 0 {
			t.Fatalf("%s: no transfers at all — empty config is inert", arm.Strategy)
		}
		if arm.MakespanS <= 0 {
			t.Fatalf("%s: non-positive makespan %.1f", arm.Strategy, arm.MakespanS)
		}
		if len(arm.EventLog) != wantSolves {
			t.Fatalf("%s: %d event-log lines, want %d", arm.Strategy, len(arm.EventLog), wantSolves)
		}
	}

	if res.Aware.MakespanS >= res.Blind.MakespanS {
		t.Errorf("data-aware makespan %.1fs must beat data-blind %.1fs",
			res.Aware.MakespanS, res.Blind.MakespanS)
	}
	if res.Aware.BytesMovedMB >= res.Blind.BytesMovedMB {
		t.Errorf("data-aware moved %.0f MB, must move less than data-blind %.0f MB",
			res.Aware.BytesMovedMB, res.Blind.BytesMovedMB)
	}
	if res.MakespanGainPct() <= 0 || res.BytesSavedPct() <= 0 {
		t.Errorf("gains must be positive: makespan %.1f%%, bytes %.1f%%",
			res.MakespanGainPct(), res.BytesSavedPct())
	}

	var b strings.Builder
	res.Print(&b)
	for _, want := range []string{"A13", "data-blind", "data-aware", "makespan gain", "bytes saved"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Print output missing %q:\n%s", want, b.String())
		}
	}
}

// TestDataAblationDeterministic pins the simulator contract: the same seed
// and bandwidth configuration produce identical event logs, run to run, for
// both arms.
func TestDataAblationDeterministic(t *testing.T) {
	cfg := DataAblationConfig{Seed: 41}
	a := RunDataAblation(cfg)
	b := RunDataAblation(cfg)
	for _, pair := range [][2]*DataArmResult{{a.Blind, b.Blind}, {a.Aware, b.Aware}} {
		x, y := pair[0], pair[1]
		if len(x.EventLog) != len(y.EventLog) {
			t.Fatalf("%s: log lengths diverge: %d vs %d", x.Strategy, len(x.EventLog), len(y.EventLog))
		}
		for i := range x.EventLog {
			if x.EventLog[i] != y.EventLog[i] {
				t.Fatalf("%s: event logs diverge at line %d:\n%s\n%s", x.Strategy, i, x.EventLog[i], y.EventLog[i])
			}
		}
		if x.MakespanS != y.MakespanS || x.BytesMovedMB != y.BytesMovedMB || x.Transfers != y.Transfers {
			t.Fatalf("%s: results diverge: %+v vs %+v", x.Strategy, x, y)
		}
	}

	// A different seed reorders submissions, so the trace must change —
	// otherwise the logs are not actually recording the schedule.
	c := RunDataAblation(DataAblationConfig{Seed: 42})
	same := len(c.Blind.EventLog) == len(a.Blind.EventLog)
	if same {
		for i := range c.Blind.EventLog {
			if c.Blind.EventLog[i] != a.Blind.EventLog[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical blind-arm event logs")
	}
}
