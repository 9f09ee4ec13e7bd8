package main

import (
	"bytes"
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
		"go.mod":           "module example.org/grid\n",
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

// unusedCase is one fixture tree for CheckModule and the problems it must
// report, each as "file:line: key", in file and line order.
type unusedCase struct {
	name  string
	files map[string]string
	want  []string
}

// fixtureMod is the go.mod of every fixture: the module path is read from
// it, not assumed.
const fixtureMod = "module example.org/grid\n"

func runUnusedCases(t *testing.T, cases []unusedCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.files["go.mod"] = fixtureMod
			problems, err := CheckModule(writeTree(t, tc.files))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, p := range problems {
				// "file:line: key is ..."
				where, _, _ := strings.Cut(p, " is ")
				got = append(got, where)
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("reported %q, want %q; problems:\n%s", got, tc.want, strings.Join(problems, "\n"))
			}
		})
	}
}

func TestCheckDeadAPI(t *testing.T) {
	runUnusedCases(t, []unusedCase{{
		// A bench/ test file counts as a user, another package's test does
		// not, and keptOnPurpose names what stays for tests.
		name: "used only by a test",
		files: map[string]string{
			"internal/lib/lib.go": `package lib

// TestOnly is called from lib_test.go alone.
func TestOnly() {}

// BenchOnly is called from a bench/ test file alone.
func BenchOnly() {}

// Live is called from another package's non-test file.
func Live() {}
`,
			"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { TestOnly(); Live() }\n",
			"internal/rpc/rpc.go":      "package rpc\n\n// ResetLocal is allowlisted shared test support.\nfunc ResetLocal() {}\n",
			"internal/app/app.go":      "package app\n\nimport \"example.org/grid/internal/lib\"\n\nfunc run() { lib.Live() }\n",
			"bench/bench_test.go":      "package main\n\nimport (\n\t\"testing\"\n\n\t\"example.org/grid/internal/lib\"\n)\n\nfunc BenchmarkLib(b *testing.B) { lib.BenchOnly() }\n",
		},
		want: []string{"internal/lib/lib.go:4: lib.TestOnly"},
	}, {
		// A name scan sees Close in use and passes both.
		name: "dead method sharing its name with a live one",
		files: map[string]string{
			"internal/lib/lib.go": `package lib

type File struct{}

func (File) Close() {}

type Pipe struct{}

func (Pipe) Close() {}
`,
			"internal/app/app.go": "package app\n\nimport \"example.org/grid/internal/lib\"\n\nfunc run(f lib.File, p lib.Pipe) { f.Close(); _ = p }\n",
		},
		want: []string{"internal/lib/lib.go:9: lib.Pipe.Close"},
	}, {
		// Count is called on a Catalog, never through Access: the interface
		// method is dead, and so is the Remote method that only implements it.
		// Locate is dispatched, so Remote.Locate lives without a direct call.
		name: "interface method that nothing dispatches",
		files: map[string]string{
			"internal/lib/lib.go": `package lib

type Access interface {
	Locate(id string) string
	Count(id string) int
}

type Catalog struct{}

func (*Catalog) Locate(id string) string { return id }
func (*Catalog) Count(id string) int     { return 1 }

type Remote struct{}

func (*Remote) Locate(id string) string { return id }
func (*Remote) Count(id string) int     { return 0 }
`,
			"internal/app/app.go": `package app

import "example.org/grid/internal/lib"

func run(c *lib.Catalog) int {
	for _, a := range []lib.Access{c, &lib.Remote{}} {
		a.Locate("ic")
	}
	return c.Count("ic")
}
`,
		},
		want: []string{"internal/lib/lib.go:5: lib.Access.Count", "internal/lib/lib.go:16: lib.Remote.Count"},
	}, {
		name: "String reached only through fmt",
		files: map[string]string{
			"internal/lib/lib.go": `package lib

type Level int

func (l Level) String() string { return "level" }
`,
			"internal/app/app.go": "package app\n\nimport (\n\t\"fmt\"\n\n\t\"example.org/grid/internal/lib\"\n)\n\nfunc run() { fmt.Println(lib.Level(1)) }\n",
		},
	}})
}

func TestCheckUnsetFields(t *testing.T) {
	runUnusedCases(t, []unusedCase{{
		// A name scan never looks at fields.
		name: "field only a test sets",
		files: map[string]string{
			"internal/lib/lib.go":      "package lib\n\ntype Config struct {\n\tUsed     int\n\tTestOnly int\n}\n",
			"internal/lib/lib_test.go": "package lib\n\nvar _ = Config{TestOnly: 1}\n",
			"internal/app/app.go":      "package app\n\nimport \"example.org/grid/internal/lib\"\n\nfunc run() lib.Config { return lib.Config{Used: 1} }\n",
		},
		want: []string{"internal/lib/lib.go:5: lib.Config.TestOnly"},
	}, {
		// res.Batch.Reservations++ sets Batch too; &c.Depth sets Depth, and a
		// positional literal sets every field.
		name: "fields set through selectors, & and positional literals",
		files: map[string]string{
			"internal/lib/lib.go": `package lib

type Stats struct{ Reservations int }

type Result struct {
	Batch Stats
	Depth int
}

type Pair struct{ A, B float64 }
`,
			"internal/app/app.go": `package app

import "example.org/grid/internal/lib"

func run(res *lib.Result, set func(*int)) lib.Pair {
	res.Batch.Reservations++
	set(&res.Depth)
	return lib.Pair{1, 2}
}
`,
		},
	}, {
		// A decoder of the module's own copies what an encoder read, so the
		// fields only ReadWire or a decoding closure assigns are unset.
		name: "fields only a decoder sets",
		files: map[string]string{
			"internal/rpc/rpc.go": "package rpc\n\ntype Reader struct{}\n\nfunc (r *Reader) Float64() float64 { return 0 }\n",
			"internal/lib/lib.go": `package lib

import "example.org/grid/internal/rpc"

type Estimate struct {
	Power   float64
	FreeMem float64
	Spare   float64
}

func (e *Estimate) ReadWire(r *rpc.Reader) {
	e.Power = r.Float64()
	e.FreeMem = r.Float64()
}

func Spares() func(*Estimate, *rpc.Reader) {
	return func(e *Estimate, r *rpc.Reader) { e.Spare = r.Float64() }
}
`,
			"internal/app/app.go": `package app

import (
	"example.org/grid/internal/lib"
	"example.org/grid/internal/rpc"
)

func measure() lib.Estimate { return lib.Estimate{Power: 100} }

func decode(r *rpc.Reader) (e lib.Estimate) {
	e.ReadWire(r)
	lib.Spares()(&e, r)
	return e
}
`,
		},
		want: []string{"internal/lib/lib.go:7: lib.Estimate.FreeMem", "internal/lib/lib.go:8: lib.Estimate.Spare"},
	}, {
		// A decoder sets a tagged field; keptOnPurpose names what stays.
		name: "tagged and allowlisted fields",
		files: map[string]string{
			"internal/lib/lib.go":   "package lib\n\ntype Status struct {\n\tVersion int `json:\"version\"`\n\tSite    string `xml:\"site\"`\n}\n",
			"internal/diet/diet.go": "package diet\n\ntype SeDSpec struct{ Executor func() }\n",
			"internal/app/app.go": "package app\n\nimport (\n\t\"example.org/grid/internal/diet\"\n\t\"example.org/grid/internal/lib\"\n)\n\n" +
				"func run(lib.Status, diet.SeDSpec) {}\n",
		},
	}})
}

// staleLib declares the names the stale-name cases cite, each used from
// non-test code so that only the docs can be at fault.
var staleLib = map[string]string{
	"internal/lib/lib.go": `package lib

type Queue struct{ Free int }

func (*Queue) Push() {}

func Live() {}
`,
	"internal/app/app.go": "package app\n\nimport \"example.org/grid/internal/lib\"\n\nfunc run() { q := &lib.Queue{Free: 1}; q.Push(); lib.Live() }\n",
}

func TestCheckStaleDocNames(t *testing.T) {
	withDocs := func(docs map[string]string) map[string]string {
		files := make(map[string]string)
		for k, v := range staleLib {
			files[k] = v
		}
		for k, v := range docs {
			files[k] = v
		}
		return files
	}
	runUnusedCases(t, []unusedCase{{
		// Functions, methods, fields, prefixes and call arguments resolve;
		// other packages and file names are not Go names of the module.
		name: "every cited name exists",
		files: withDocs(map[string]string{
			"README.md": "`lib.Live`, `lib.Queue.Push()`, `lib.Queue.Free`, `lib.Qu*`,\n" +
				"`lib.Queue.Pu*`, `lib.go`, `fmt.Stringer`, `other.Gone`\n",
		}),
	}, {
		name: "one stale name",
		files: withDocs(map[string]string{
			"README.md":   "Intro.\n\nThe queue is `lib.Queue`; `lib.Queue.Pop` takes the head.\n",
			"docs/ops.md": "`lib.Live` and `lib.Queue.Push(e)`\n",
			"CHANGES.md":  "Deleted `lib.Gone`.\n",
			"PLAN.md":     "Delete `lib.Gone`.\n",
		}),
		want: []string{"README.md:3: `lib.Queue.Pop`"},
	}})
}

func TestCheckRefusesTreeThatDoesNotTypeCheck(t *testing.T) {
	for name, src := range map[string]string{
		"type error":     "package lib\n\nfunc F() int { return \"x\" }\n",
		"missing import": "package lib\n\nimport \"example.org/grid/internal/gone\"\n\nvar _ = gone.X\n",
	} {
		t.Run(name, func(t *testing.T) {
			root := writeTree(t, map[string]string{
				"go.mod":              fixtureMod,
				"README.md":           "",
				"docs/cli.md":         "# CLI\n",
				"internal/lib/lib.go": src,
			})
			if problems, err := Check(root); err == nil {
				t.Fatalf("Check returned %q and no error", problems)
			}
			var stdout, stderr bytes.Buffer
			if code := run(root, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "internal/lib/lib.go") {
				t.Fatalf("exit %d, stderr %q, stdout %q; want 2 naming the file", code, stderr.String(), stdout.String())
			}
		})
	}
}
