package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a minimal repository under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const goodCLI = "# CLI\n\n### `cmd/tool`\n\n| `-alpha` | first |\n| `-beta-gamma` | second |\n"

const toolMain = `package main

import "flag"

func main() {
	flag.String("alpha", "", "")
	flag.Duration("beta-gamma", 0, "")
	flag.Parse()
}
`

func TestCheckCleanTreePasses(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md":        "see [the CLI](docs/cli.md) and [tool](cmd/tool/main.go)\n",
		"docs/cli.md":      goodCLI,
		"cmd/tool/main.go": toolMain,
	})
	problems, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean tree must pass, got %v", problems)
	}
}

func TestCheckFlagsCatchesDrift(t *testing.T) {
	// cli.md documents a flag the binary dropped and misses one it gained.
	root := writeTree(t, map[string]string{
		"docs/cli.md": "### `cmd/tool`\n\n| `-alpha` | kept |\n| `-gone` | removed |\n",
		"cmd/tool/main.go": `package main

import "flag"

func main() {
	flag.String("alpha", "", "")
	flag.Bool("added", false, "")
}
`,
	})
	problems, err := CheckCLIDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"missing flag `-added`", "documents `-gone`"}
	for _, w := range want {
		found := false
		for _, p := range problems {
			if strings.Contains(p, w) {
				found = true
			}
		}
		if !found {
			t.Fatalf("problems %v must include %q", problems, w)
		}
	}
	if len(problems) != 2 {
		t.Fatalf("exactly two problems expected, got %v", problems)
	}
}

func TestCheckFlagsSeesFlagSets(t *testing.T) {
	// Flags registered on a named FlagSet count too (cmd/benchdiff's style).
	root := writeTree(t, map[string]string{
		"docs/cli.md": "### `cmd/tool`\n",
		"cmd/tool/main.go": `package main

import "flag"

func main() {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.Float64("threshold", 25, "")
}
`,
	})
	problems, err := CheckCLIDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "missing flag `-threshold`") {
		t.Fatalf("FlagSet flag must be required in the docs, got %v", problems)
	}
}

func TestCheckInvocationsCatchesStaleFlags(t *testing.T) {
	// A stale flag is reported in an inline code span and on a `\`-continued
	// fenced line, with the binary reached by name, through go run or by any
	// path. Defined flags, anything after a comment or a pipe, programs
	// outside cmd/ (bench -compare, examples) and history files are not.
	root := writeTree(t, map[string]string{
		"cmd/tool/main.go": toolMain,
		"docs/guide.md": "Run `tool -alpha x -gone` or `go run ./cmd/tool -beta-gamma=1s`.\n\n" +
			"```sh\n./bin/tool -alpha x \\\n    -stale 3   # -ignored after a comment\n" +
			"tool -alpha 1 | grep -v -nope\nbench -compare old.json new.json\n" +
			"go run ./examples/demo -whatever\n```\n",
		"CHANGES.md": "Removed `tool -gone`.\n",
	})
	problems, err := CheckInvocations(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "docs/guide.md: `tool -alpha x -gone` passes -gone, which cmd/tool does not define") ||
		!strings.Contains(problems[1], "`./bin/tool -alpha x -stale 3") || !strings.Contains(problems[1], "passes -stale") {
		t.Fatalf("want exactly -gone then -stale, got %v", problems)
	}
}

func TestCheckMissingSection(t *testing.T) {
	root := writeTree(t, map[string]string{
		"docs/cli.md":         "# CLI\n",
		"cmd/newtool/main.go": "package main\n\nfunc main() {}\n",
	})
	problems, err := CheckCLIDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "no section for cmd/newtool") {
		t.Fatalf("missing section must be reported, got %v", problems)
	}
}

func TestCheckLinksCatchesBrokenRelative(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "[ok](docs/cli.md) [broken](docs/missing.md) " +
			"[external](https://example.org/x.md) [anchor](#local) [frag](docs/cli.md#sec)\n",
		"docs/cli.md": "# CLI\n",
	})
	problems, err := CheckLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], `broken relative link "docs/missing.md"`) {
		t.Fatalf("exactly the broken link must be reported, got %v", problems)
	}
}

func TestCheckLinksSkipsSnippets(t *testing.T) {
	root := writeTree(t, map[string]string{
		"SNIPPETS.md": "[quoted](design/elsewhere.md)\n",
		"docs/cli.md": "# CLI\n",
	})
	problems, err := CheckLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("SNIPPETS.md quotes other repos and must be skipped, got %v", problems)
	}
}

func TestCheckAblationIndexFlagsMissingRow(t *testing.T) {
	// A2 is indexed, A10 is implemented but has no row; test files and
	// markers outside internal/simgrid never count.
	root := writeTree(t, map[string]string{
		"README.md": "| Ablation | Question |\n|---|---|\n| A2 | indexed |\n",
		"internal/simgrid/a.go": "package simgrid\n\n// RunX is the x ablation (A2): indexed.\n" +
			"// RunY is the y ablation (A10): not indexed.\n",
		"internal/simgrid/a_test.go": "package simgrid\n\n// the z ablation (A99) in a test file\n",
		"internal/other/b.go":        "package other\n\n// the w ablation (A77) outside simgrid\n",
	})
	problems, err := CheckAblationIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "no | A10 | row") {
		t.Fatalf("exactly the unindexed A10 must be reported, got %v", problems)
	}
	if !strings.Contains(problems[0], "internal/simgrid/a.go") {
		t.Fatalf("the problem must name the implementing file, got %v", problems)
	}
}

func TestCheckAblationIndexOrdersNumerically(t *testing.T) {
	// With several missing rows the report is stable and numeric: A2 before
	// A10, never lexicographic.
	root := writeTree(t, map[string]string{
		"README.md": "no table at all\n",
		"internal/simgrid/a.go": "package simgrid\n\n// the big ablation (A10).\n" +
			"// the small ablation (A2).\n",
	})
	problems, err := CheckAblationIndex(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "| A2 |") || !strings.Contains(problems[1], "| A10 |") {
		t.Fatalf("want A2 then A10, got %v", problems)
	}
}

func TestCheckAblationIndexCoversWorkflowAblation(t *testing.T) {
	// The A11 marker in the workflow ablation must demand its README row
	// like every other ablation, and be satisfied once the row exists.
	files := map[string]string{
		"README.md": "| Ablation | Question |\n|---|---|\n| A10 | indexed |\n",
		"internal/simgrid/workflowablation.go": "package simgrid\n\n" +
			"// This file runs the workflow ablation (A11): campaign DAGs.\n",
	}
	problems, err := CheckAblationIndex(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "no | A11 | row") {
		t.Fatalf("unindexed A11 must be reported, got %v", problems)
	}
	files["README.md"] += "| A11 | workflow campaigns |\n"
	problems, err = CheckAblationIndex(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("indexed A11 must satisfy the check, got %v", problems)
	}
}

func TestCheckAblationIndexCoversDataAblation(t *testing.T) {
	// Same contract for the A13 marker in the data ablation.
	files := map[string]string{
		"README.md": "| Ablation | Question |\n|---|---|\n| A11 | indexed |\n",
		"internal/simgrid/dataablation.go": "package simgrid\n\n" +
			"// This file runs the data ablation (A13): transfer-priced placement.\n",
	}
	problems, err := CheckAblationIndex(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "no | A13 | row") {
		t.Fatalf("unindexed A13 must be reported, got %v", problems)
	}
	files["README.md"] += "| A13 | data-aware scheduling |\n"
	problems, err = CheckAblationIndex(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("indexed A13 must satisfy the check, got %v", problems)
	}
}

func TestCheckDeadAPI(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/lib/lib.go": `package lib

// TestOnly is called from lib_test.go alone.
func TestOnly() {}

// BenchOnly is called from a bench/ test file alone.
func BenchOnly() {}

// Live is called from another package's non-test file.
func Live() {}
`,
		"internal/lib/lib_test.go": "package lib\n\nfunc TestLib(t *testing.T) { TestOnly(); Live(); ResetLocal() }\n",
		"internal/rpc/rpc.go":      "package rpc\n\n// ResetLocal is allowlisted shared test support.\nfunc ResetLocal() {}\n",
		"internal/app/app.go":      "package app\n\nimport \"repro/internal/lib\"\n\nfunc run() { lib.Live() }\n",
		"bench/bench_test.go":      "package bench\n\nimport \"repro/internal/lib\"\n\nfunc BenchmarkLib(b *testing.B) { lib.BenchOnly() }\n",
	})
	problems, err := CheckDeadAPI(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.HasPrefix(problems[0], "internal/lib/lib.go:4: lib.TestOnly ") {
		t.Fatalf("want exactly lib.TestOnly flagged at internal/lib/lib.go:4, got %q", problems)
	}
}
