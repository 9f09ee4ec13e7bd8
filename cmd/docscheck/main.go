// Command docscheck is the CI documentation gate. It fails when the docs
// have drifted from the tree:
//
//   - a relative link in any *.md file points at a path that does not exist;
//
//   - a cmd/* binary has no section in docs/cli.md;
//
//   - a flag defined by a cmd/* binary is missing from its docs/cli.md
//     section;
//
//   - a cmd/* section in docs/cli.md documents a flag the binary no longer
//     defines (stale docs);
//
//   - a command line in any *.md file runs a cmd/* binary with a flag the
//     binary does not define (a stale invocation);
//
//   - an ablation implemented in internal/simgrid ("... ablation (A<n>)")
//     has no row in README.md's ablation index;
//
//   - an exported internal/ declaration is used by tests only, or an
//     exported internal/ struct field is set by tests or decoders only;
//
//   - a code span in README.md, ARCHITECTURE.md or a *.md file below the
//     root cites pkg.Name or pkg.Type.Member of an internal/ package that
//     declares no such name (these last checks run on the type-checked module; a tree
//     that does not type-check exits 2).
//
//     docscheck            # check the repository rooted at the working dir
//     docscheck -root ../..
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	os.Exit(run(*root, os.Stdout, os.Stderr))
}

// run checks the repository at root and returns the exit status: 0 when it
// is consistent, 1 with its problems, 2 when it cannot be checked.
func run(root string, stdout, stderr io.Writer) int {
	problems, err := Check(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(stdout, "docscheck: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Fprintln(stdout, "docscheck: docs are consistent with the tree")
	return 0
}

// Check runs every documentation gate over the repository at root and
// returns the problems found (empty = docs are consistent).
func Check(root string) ([]string, error) {
	var problems []string
	for _, check := range []func(string) ([]string, error){CheckLinks, CheckCLIDocs, CheckInvocations, CheckAblationIndex, CheckModule} {
		found, err := check(root)
		if err != nil {
			return nil, err
		}
		problems = append(problems, found...)
	}
	return problems, nil
}

// walkMarkdown calls fn with the root-relative path and the text of every
// *.md file under root outside .git.
func walkMarkdown(root string, fn func(rel, doc string)) error {
	return walkFiles(root, ".md", func(rel string, data []byte) error {
		fn(rel, string(data))
		return nil
	})
}

// walkFiles calls fn with the root-relative path and the contents of every
// file under root outside .git whose name ends in suffix.
func walkFiles(root, suffix string, fn func(rel string, data []byte) error) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		return fn(rel, data)
	})
}

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// CheckLinks verifies every relative link in every tracked *.md file points
// at an existing file or directory. External schemes and pure-anchor links
// are skipped; a trailing #fragment is ignored.
func CheckLinks(root string) ([]string, error) {
	var problems []string
	err := walkMarkdown(root, func(rel, doc string) {
		if filepath.Base(rel) == "SNIPPETS.md" {
			// Quoted exemplar material from other repositories; its links
			// point into trees we do not carry.
			return
		}
		for _, m := range linkRe.FindAllStringSubmatch(doc, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(root, filepath.Dir(rel), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken relative link %q", rel, m[1]))
			}
		}
	})
	return problems, err
}

var (
	// Matches definitions on the global flag package and on named FlagSets
	// (benchdiff builds one for testability).
	flagDefRe = regexp.MustCompile(`\b\w+\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\(\s*"([^"]+)"`)
	flagDocRe = regexp.MustCompile("`-([a-zA-Z0-9][a-zA-Z0-9-]*)`")
	sectionRe = regexp.MustCompile("(?m)^### `?cmd/([a-zA-Z0-9_-]+)`?")
)

// CheckCLIDocs verifies docs/cli.md covers every cmd/* binary: each binary
// has a section, each defined flag appears in that section, and each flag
// the section documents still exists in the binary.
func CheckCLIDocs(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "docs", "cli.md"))
	if err != nil {
		return nil, fmt.Errorf("docscheck: %w", err)
	}
	sections := splitSections(string(data))
	binaries, err := cmdFlags(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, name := range sortedKeys(binaries) {
		section, ok := sections[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("docs/cli.md: no section for cmd/%s", name))
			continue
		}
		defined := binaries[name]
		for _, f := range sortedKeys(defined) {
			if !strings.Contains(section, "`-"+f+"`") {
				problems = append(problems, fmt.Sprintf("docs/cli.md: cmd/%s section is missing flag `-%s`", name, f))
			}
		}
		for _, m := range flagDocRe.FindAllStringSubmatch(section, -1) {
			if !defined[m[1]] {
				problems = append(problems, fmt.Sprintf("docs/cli.md: cmd/%s section documents `-%s`, which the binary does not define", name, m[1]))
			}
		}
	}
	return problems, nil
}

// historyFiles record what the tree used to be: the command lines in them
// are history, not instructions.
var historyFiles = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "SNIPPETS.md": true}

var (
	codeSpanRe = regexp.MustCompile("`([^`\n]+)`")
	argFlagRe  = regexp.MustCompile(`^--?([a-zA-Z][a-zA-Z0-9-]*)`)
)

// CheckInvocations verifies every command line the docs show for a cmd/*
// binary passes only flags the binary defines. A command line is a line of
// a fenced block, `\`-continued lines joined, or an inline code span, that
// starts with `go run ./cmd/<bin>` or with <bin> (or any path ending in it);
// its flags run up to a comment or a shell operator. Other programs and the
// history files are not checked.
func CheckInvocations(root string) ([]string, error) {
	binaries, err := cmdFlags(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	err = walkMarkdown(root, func(rel, doc string) {
		if historyFiles[filepath.Base(rel)] {
			return
		}
		for _, line := range commandLines(doc) {
			args := strings.Fields(line)
			if len(args) > 2 && args[0] == "go" && args[1] == "run" && strings.HasPrefix(path.Clean(args[2]), "cmd/") {
				args = args[2:]
			}
			if len(args) == 0 {
				continue
			}
			bin := path.Base(args[0])
			defined, ok := binaries[bin]
			for _, arg := range args[1:] {
				if !ok || strings.HasPrefix(arg, "#") || strings.ContainsAny(arg[:1], "|&;<>") {
					break
				}
				if m := argFlagRe.FindStringSubmatch(arg); m != nil && !defined[m[1]] {
					problems = append(problems, fmt.Sprintf("%s: `%s` passes -%s, which cmd/%s does not define", rel, strings.Join(args, " "), m[1], bin))
				}
			}
		}
	})
	return problems, err
}

// commandLines returns the candidate command lines of a Markdown document:
// each line of a fenced block, with `\`-continued lines joined, and each
// inline code span outside one.
func commandLines(doc string) []string {
	var out []string
	fenced, pending := false, ""
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case !fenced:
			for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
				out = append(out, m[1])
			}
		case strings.HasSuffix(line, `\`):
			pending += strings.TrimSuffix(line, `\`) + " "
		default:
			out = append(out, pending+line)
			pending = ""
		}
	}
	return out
}

var ablationMarkRe = regexp.MustCompile(`ablation \((A\d+)\)`)

// CheckAblationIndex verifies README.md's ablation index covers every
// ablation the simulator implements: each "... ablation (A<n>)" marker in a
// non-test internal/simgrid source file must have an "| A<n> |" row in the
// README table. New ablations land with their row or CI fails.
func CheckAblationIndex(root string) ([]string, error) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, fmt.Errorf("docscheck: %w", err)
	}
	files, err := filepath.Glob(filepath.Join(root, "internal", "simgrid", "*.go"))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]string) // ablation id → first file implementing it
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		for _, m := range ablationMarkRe.FindAllStringSubmatch(string(data), -1) {
			if _, dup := seen[m[1]]; !dup {
				seen[m[1]] = rel
			}
		}
	}
	// Numeric order (A2 before A10): the ids sorted as text, then stably by length.
	ids := sortedKeys(seen)
	sort.SliceStable(ids, func(i, j int) bool { return len(ids[i]) < len(ids[j]) })
	var problems []string
	for _, id := range ids {
		if !strings.Contains(string(readme), "| "+id+" |") {
			problems = append(problems, fmt.Sprintf("README.md: ablation index has no | %s | row (%s implements it)", id, seen[id]))
		}
	}
	return problems, nil
}

// splitSections maps each "### cmd/<name>" heading in cli.md to the text of
// its section (up to the next ### or ## heading).
func splitSections(doc string) map[string]string {
	out := make(map[string]string)
	idx := sectionRe.FindAllStringSubmatchIndex(doc, -1)
	for i, m := range idx {
		name := doc[m[2]:m[3]]
		end := len(doc)
		if i+1 < len(idx) {
			end = idx[i+1][0]
		}
		body := doc[m[1]:end]
		// A "## ..." heading also ends the section.
		if j := strings.Index(body, "\n## "); j >= 0 {
			body = body[:j]
		}
		out[name] = body
	}
	return out
}

// cmdFlags maps each cmd/* binary to the flags it defines.
func cmdFlags(root string) (map[string]map[string]bool, error) {
	dirs, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool)
	for _, dir := range dirs {
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			continue
		}
		if out[filepath.Base(dir)], err = definedFlags(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// definedFlags collects the flag names a cmd/* package defines.
func definedFlags(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(data), -1) {
			out[m[1]] = true
		}
	}
	return out, nil
}

// sortByPlace orders "file:line: ..." problems by file, then by line number,
// so that lib.go:5 comes before lib.go:16.
func sortByPlace(problems []string) {
	place := func(p string) (string, int) {
		file, rest, _ := strings.Cut(p, ":")
		line, _, _ := strings.Cut(rest, ":")
		n, _ := strconv.Atoi(line)
		return file, n
	}
	slices.SortFunc(problems, func(a, b string) int {
		fa, la := place(a)
		fb, lb := place(b)
		return cmp.Or(strings.Compare(fa, fb), cmp.Compare(la, lb), strings.Compare(a, b))
	})
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
