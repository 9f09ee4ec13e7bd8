// Package ramses is the application layer of the reproduction: it ties the
// GRAFIC initial-conditions generator, the particle-mesh N-body solver
// (nested zoom ICs, no adaptive refinement) and the GALICS post-processing chain into the two simulation phases the
// paper runs through DIET — the low-resolution survey (ramsesZoom1) and the
// per-halo zoom re-simulations (ramsesZoom2).
package ramses

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Namelist is a parsed Fortran namelist file: group name → key → raw values.
// RAMSES reads all its run parameters from such a file (the paper's client
// ships a <namelist.nml> as the first service argument).
type Namelist struct {
	groups map[string]map[string][]string
	order  []string
}

// ParseNamelist reads Fortran namelist syntax:
//
//	&GROUP_NAME
//	  key = value
//	  list = 1.0, 2.0, 3.0
//	  flag = .true.   ! comment
//	/
//
// Group and key lookups are case-insensitive, as in Fortran.
func ParseNamelist(r io.Reader) (*Namelist, error) {
	nl := &Namelist{groups: make(map[string]map[string][]string)}
	scanner := bufio.NewScanner(r)
	var current string
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '!'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "&"):
			if current != "" {
				return nil, fmt.Errorf("ramses: line %d: group %q not closed before new group", lineNo, current)
			}
			current = strings.ToLower(strings.TrimSpace(line[1:]))
			if current == "" {
				return nil, fmt.Errorf("ramses: line %d: empty group name", lineNo)
			}
			if _, dup := nl.groups[current]; dup {
				return nil, fmt.Errorf("ramses: line %d: duplicate group %q", lineNo, current)
			}
			nl.groups[current] = make(map[string][]string)
			nl.order = append(nl.order, current)
		case line == "/":
			if current == "" {
				return nil, fmt.Errorf("ramses: line %d: '/' outside a group", lineNo)
			}
			current = ""
		default:
			if current == "" {
				return nil, fmt.Errorf("ramses: line %d: assignment outside a group: %q", lineNo, line)
			}
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("ramses: line %d: expected key=value, got %q", lineNo, line)
			}
			key := strings.ToLower(strings.TrimSpace(line[:eq]))
			if key == "" {
				return nil, fmt.Errorf("ramses: line %d: empty key", lineNo)
			}
			var values []string
			for _, v := range strings.Split(line[eq+1:], ",") {
				v = strings.TrimSpace(v)
				if v != "" {
					values = append(values, v)
				}
			}
			nl.groups[current][key] = values
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if current != "" {
		return nil, fmt.Errorf("ramses: group %q not closed at end of file", current)
	}
	return nl, nil
}

// ParseNamelistFile parses the namelist at path.
func ParseNamelistFile(path string) (*Namelist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseNamelist(f)
}

// Has reports whether group/key exists.
func (nl *Namelist) Has(group, key string) bool {
	g, ok := nl.groups[strings.ToLower(group)]
	if !ok {
		return false
	}
	_, ok = g[strings.ToLower(key)]
	return ok
}

// raw returns the value list for group/key.
func (nl *Namelist) raw(group, key string) ([]string, error) {
	g, ok := nl.groups[strings.ToLower(group)]
	if !ok {
		return nil, fmt.Errorf("ramses: namelist group %q not found", group)
	}
	v, ok := g[strings.ToLower(key)]
	if !ok {
		return nil, fmt.Errorf("ramses: key %q not found in group %q", key, group)
	}
	return v, nil
}

// String returns a scalar string value, stripping Fortran quotes.
func (nl *Namelist) String(group, key string) (string, error) {
	v, err := nl.raw(group, key)
	if err != nil {
		return "", err
	}
	if len(v) != 1 {
		return "", fmt.Errorf("ramses: %s/%s has %d values, want 1", group, key, len(v))
	}
	return strings.Trim(v[0], "'\""), nil
}

// Int returns a scalar integer value.
func (nl *Namelist) Int(group, key string) (int, error) {
	s, err := nl.String(group, key)
	if err != nil {
		return 0, err
	}
	i, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("ramses: %s/%s: %w", group, key, err)
	}
	return i, nil
}

// Float returns a scalar float value, accepting Fortran 'd' exponents.
func (nl *Namelist) Float(group, key string) (float64, error) {
	s, err := nl.String(group, key)
	if err != nil {
		return 0, err
	}
	return parseFortranFloat(group, key, s)
}

// Floats returns a list-valued float entry.
func (nl *Namelist) Floats(group, key string) ([]float64, error) {
	v, err := nl.raw(group, key)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(v))
	for i, s := range v {
		f, err := parseFortranFloat(group, key, s)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// Set stores a value list, creating the group if needed. Used by writers.
func (nl *Namelist) Set(group, key string, values ...string) {
	group = strings.ToLower(group)
	if _, ok := nl.groups[group]; !ok {
		nl.groups[group] = make(map[string][]string)
		nl.order = append(nl.order, group)
	}
	nl.groups[group][strings.ToLower(key)] = values
}

// NewNamelist returns an empty namelist ready for Set calls.
func NewNamelist() *Namelist {
	return &Namelist{groups: make(map[string]map[string][]string)}
}

// Write emits the namelist in canonical Fortran syntax with sorted keys.
func (nl *Namelist) Write(w io.Writer) error {
	for _, g := range nl.order {
		if _, err := fmt.Fprintf(w, "&%s\n", strings.ToUpper(g)); err != nil {
			return err
		}
		keys := make([]string, 0, len(nl.groups[g]))
		for k := range nl.groups[g] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "  %s=%s\n", k, strings.Join(nl.groups[g][k], ",")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, "/"); err != nil {
			return err
		}
	}
	return nil
}

func parseFortranFloat(group, key, s string) (float64, error) {
	s = strings.ReplaceAll(strings.ReplaceAll(s, "d", "e"), "D", "e")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("ramses: %s/%s: %w", group, key, err)
	}
	return f, nil
}
