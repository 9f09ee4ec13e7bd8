package main

import (
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
// wired to the wrong function prints another ablation's header.
func TestEveryAblationRuns(t *testing.T) {
	for _, a := range ablations {
		var out strings.Builder
		a.run(&out)
		first, _, _ := strings.Cut(out.String(), "\n")
		if !strings.HasPrefix(first, "Ablation "+a.id+" ") && !strings.HasPrefix(first, "Sweep "+a.id+"a ") {
			t.Errorf("entry %s printed %q first", a.id, first)
		}
	}
}
