package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSelectAblations(t *testing.T) {
	all := []string{"A1", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13"}
	for _, tc := range []struct {
		spec string
		want []string // nil: refused
	}{
		{"A5", []string{"A5"}},
		{"A13,A5", []string{"A5", "A13"}},
		{"all", all},
		{" all ", all},
		{" A6 , A1", []string{"A1", "A6"}},
		{"A7,A7", []string{"A7"}},
		{"", nil},
		{"A5,", nil},
		{"A2", nil},
		{"A3", nil},
		{"a5", nil},
		{"A5,all", nil},
	} {
		got, err := selectAblations(tc.spec)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(all, ", ")) {
				t.Errorf("%q: got %v, %v; want a refusal listing the valid ids", tc.spec, got, err)
			}
			continue
		}
		var ids []string
		for _, a := range got {
			ids = append(ids, a.id)
		}
		if err != nil || strings.Join(ids, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%q: got %v, %v; want %v", tc.spec, ids, err, tc.want)
		}
	}
}

// TestEveryAblationRuns runs each table entry once at the command's default
// flags: an entry whose simulation fails stops the test binary, and one
// wired to the wrong function prints another ablation's header. Together
// the entries print what -ablation all prints, and with the wall-clock text
// masked that must match testdata/ablation_all.golden byte for byte: the
// setup lines read the simulator's constants, and every figure is virtual
// time.
func TestEveryAblationRuns(t *testing.T) {
	var all strings.Builder
	for _, a := range ablations {
		var out strings.Builder
		a.run(&out)
		first, _, _ := strings.Cut(out.String(), "\n")
		if !strings.HasPrefix(first, "Ablation "+a.id+" ") && !strings.HasPrefix(first, "Sweep "+a.id+"a ") {
			t.Errorf("entry %s printed %q first", a.id, first)
		}
		all.WriteString(out.String())
	}
	want, err := os.ReadFile("testdata/ablation_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`simulated in [^)]*`).ReplaceAllString(all.String(), "")
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("-ablation all output differs from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("-ablation all output has %d lines, the golden %d", len(gl), len(wl))
	}
}
