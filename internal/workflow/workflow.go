// Package workflow is the DIET workflow management system the paper names as
// its first next step (§8): "the workflow management system, which uses an
// XML document to represent the nodes and the data dependencies. The
// simulation execution sequence could be represented as a directed acyclic
// graph". It provides a DAG engine with topological validation and
// event-driven parallel execution, XML (de)serialisation, and a generator
// for the paper's Figure 4 RAMSES workflow.
package workflow

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cori"
)

// Document is the XML representation of a workflow.
type Document struct {
	XMLName xml.Name  `xml:"workflow"`
	Name    string    `xml:"name,attr"`
	Nodes   []NodeDef `xml:"node"`
}

// NodeDef is one XML workflow node: an id, the DIET service (or local
// action) it runs, and the ids it depends on.
type NodeDef struct {
	ID      string `xml:"id,attr"`
	Service string `xml:"service,attr"`
	Depends string `xml:"depends,attr,omitempty"` // space-separated ids
}

// WriteXML emits the document with indentation.
func (d *Document) WriteXML(w io.Writer) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(d); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Action is the executable body of a node. The ctx carries completion
// results of the dependencies.
type Action func(ctx *TaskContext) error

// TaskContext is handed to each action.
type TaskContext struct {
	ID      string
	Service string
	// Outputs of completed dependencies, keyed by node id. Actions may store
	// any value for their dependents via SetOutput.
	deps map[string]any
	dag  *DAG
	out  any
}

// DepOutput returns the stored output of a dependency.
func (c *TaskContext) DepOutput(id string) (any, bool) {
	v, ok := c.deps[id]
	return v, ok
}

// SetOutput stores this node's output for its dependents.
func (c *TaskContext) SetOutput(v any) { c.out = v }

// task is a DAG node with its binding.
type task struct {
	def    NodeDef
	deps   []string
	action Action
}

// DAG is an executable workflow.
type DAG struct {
	name  string
	tasks map[string]*task
	order []string // insertion order, for deterministic reporting
}

// New creates an empty DAG.
func New(name string) *DAG {
	return &DAG{name: name, tasks: make(map[string]*task)}
}

// Name returns the workflow name.
func (d *DAG) Name() string { return d.name }

// Add inserts a node with its dependencies and (optionally nil) action.
// Duplicate ids in deps collapse to one edge, so a sloppy document cannot
// skew the readiness counting or the priority weights.
func (d *DAG) Add(id, service string, deps []string, action Action) error {
	if id == "" {
		return fmt.Errorf("workflow: node needs an id")
	}
	if _, dup := d.tasks[id]; dup {
		return fmt.Errorf("workflow: duplicate node id %q", id)
	}
	var uniq []string
	seen := make(map[string]bool, len(deps))
	for _, dep := range deps {
		if !seen[dep] {
			seen[dep] = true
			uniq = append(uniq, dep)
		}
	}
	d.tasks[id] = &task{
		def:    NodeDef{ID: id, Service: service, Depends: strings.Join(uniq, " ")},
		deps:   uniq,
		action: action,
	}
	d.order = append(d.order, id)
	return nil
}

// Bind attaches an action to an existing node (used after FromDocument).
func (d *DAG) Bind(id string, action Action) error {
	t, ok := d.tasks[id]
	if !ok {
		return fmt.Errorf("workflow: no node %q to bind", id)
	}
	t.action = action
	return nil
}

// FromDocument builds an unbound DAG from an XML document.
func FromDocument(doc *Document) (*DAG, error) {
	d := New(doc.Name)
	for _, n := range doc.Nodes {
		var deps []string
		if strings.TrimSpace(n.Depends) != "" {
			deps = strings.Fields(n.Depends)
		}
		if err := d.Add(n.ID, n.Service, deps, nil); err != nil {
			return nil, err
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return nil, err
	}
	return d, nil
}

// cloneShallow copies the DAG's structure (shared dependency slices, copied
// task records) so a runner can bind and instrument actions per run without
// mutating the caller's graph.
func (d *DAG) cloneShallow() *DAG {
	c := &DAG{name: d.name, tasks: make(map[string]*task, len(d.tasks)), order: append([]string(nil), d.order...)}
	for id, t := range d.tasks {
		tc := *t
		c.tasks[id] = &tc
	}
	return c
}

// TopoOrder returns a deterministic topological order, or an error naming a
// cycle or a missing dependency.
func (d *DAG) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(d.tasks))
	dependents := make(map[string][]string)
	for id, t := range d.tasks {
		if _, ok := indeg[id]; !ok {
			indeg[id] = 0
		}
		for _, dep := range t.deps {
			if _, ok := d.tasks[dep]; !ok {
				return nil, fmt.Errorf("workflow: node %q depends on unknown node %q", id, dep)
			}
			indeg[id]++
			dependents[dep] = append(dependents[dep], id)
		}
	}
	var ready []string
	for id, n := range indeg {
		if n == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		next := dependents[id]
		sort.Strings(next)
		for _, dep := range next {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
		sort.Strings(ready)
	}
	if len(order) != len(d.tasks) {
		var stuck []string
		for id, n := range indeg {
			if n > 0 {
				stuck = append(stuck, id)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("workflow: cycle among nodes %v", stuck)
	}
	return order, nil
}

// Result records one node's execution.
type Result struct {
	ID      string
	Start   time.Time
	End     time.Time
	Err     error
	Skipped bool // dependency failed, node never ran
}

// Report is the outcome of a workflow execution.
type Report struct {
	Results map[string]Result
	Err     error // first node error, if any
}

// Execute runs the DAG event-driven: every node starts as soon as all its
// dependencies completed, up to maxParallel nodes at once (0 = unlimited).
// If a node fails, its transitive dependents are skipped but independent
// branches still complete.
func (d *DAG) Execute(maxParallel int) *Report {
	return d.ExecutePrioritized(maxParallel, nil)
}

// runAction invokes one node's action, converting a panic into an ordinary
// node error. A panicking action must fail its node — and skip the node's
// dependents — without taking the whole process down, which matters once
// actions wrap remote solves whose decode paths are not under our control.
func runAction(a Action, ctx *TaskContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workflow: node %q panicked: %v", ctx.ID, r)
		}
	}()
	return a(ctx)
}

// ExecutePrioritized runs the DAG like Execute but, when more nodes are
// ready than maxParallel allows, launches them in decreasing priority order
// (ties and missing entries fall back to topological order). Feeding it the
// forecast-weighted downstream-chain lengths of CriticalPathSeconds gives
// critical-path-first scheduling: the longest predicted chain advances as
// soon as it can while off-critical branches fill the remaining slots.
func (d *DAG) ExecutePrioritized(maxParallel int, priority map[string]float64) *Report {
	order, err := d.TopoOrder()
	if err != nil {
		return &Report{Err: err, Results: map[string]Result{}}
	}
	for _, id := range order {
		if d.tasks[id].action == nil {
			return &Report{Err: fmt.Errorf("workflow: node %q has no action bound", id), Results: map[string]Result{}}
		}
	}
	topoIdx := make(map[string]int, len(order))
	for i, id := range order {
		topoIdx[id] = i
	}

	var (
		mu      sync.Mutex
		results = make(map[string]Result, len(order))
		outputs = make(map[string]any)
		remain  = make(map[string]int, len(order))
		deps    = make(map[string][]string)
		ready   []string // ids whose dependencies completed, not yet launched
		running int
		wg      sync.WaitGroup
	)
	for id, t := range d.tasks {
		remain[id] = len(t.deps)
		for _, dep := range t.deps {
			deps[dep] = append(deps[dep], id)
		}
	}

	var dispatch func() // called with mu held

	launch := func(id string) { // called with mu held
		t := d.tasks[id]
		running++
		ctx := &TaskContext{ID: id, Service: t.def.Service, dag: d, deps: make(map[string]any, len(t.deps))}
		for _, dep := range t.deps {
			ctx.deps[dep] = outputs[dep]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := Result{ID: id, Start: time.Now()}
			res.Err = runAction(t.action, ctx)
			res.End = time.Now()

			mu.Lock()
			defer mu.Unlock()
			running--
			results[id] = res
			if res.Err != nil {
				var skip func(string)
				skip = func(id string) {
					for _, dep := range deps[id] {
						if _, done := results[dep]; done {
							continue
						}
						results[dep] = Result{ID: dep, Skipped: true}
						skip(dep)
					}
				}
				skip(id)
			} else {
				outputs[id] = ctx.out
				for _, dep := range deps[id] {
					if _, skipped := results[dep]; skipped {
						continue
					}
					remain[dep]--
					if remain[dep] == 0 {
						ready = append(ready, dep)
					}
				}
			}
			dispatch()
		}()
	}

	dispatch = func() {
		for len(ready) > 0 && (maxParallel <= 0 || running < maxParallel) {
			best := NextReady(ready, priority, topoIdx)
			id := ready[best]
			ready = append(ready[:best], ready[best+1:]...)
			launch(id)
		}
	}

	mu.Lock()
	for _, id := range order {
		if remain[id] == 0 {
			ready = append(ready, id)
		}
	}
	dispatch()
	mu.Unlock()
	wg.Wait()

	report := &Report{Results: results}
	for _, id := range order {
		if r, ok := results[id]; ok && r.Err != nil {
			report.Err = fmt.Errorf("workflow: node %q failed: %w", id, r.Err)
			break
		}
	}
	return report
}

// NextReady picks which ready node launches next: the index in ready of the
// highest priority, with ties and missing entries going to the earlier node
// in topological order (topoIdx). ExecutePrioritized and the simulator's
// workflow mirror both launch through it.
func NextReady(ready []string, priority map[string]float64, topoIdx map[string]int) int {
	best := 0
	for i := 1; i < len(ready); i++ {
		a, b := ready[i], ready[best]
		if pa, pb := priority[a], priority[b]; pa != pb {
			if pa > pb {
				best = i
			}
		} else if topoIdx[a] < topoIdx[b] {
			best = i
		}
	}
	return best
}

// CriticalPathSeconds prices every node's longest downstream chain: the
// node's own predicted duration (price, typically a CoRI forecast of its
// service) plus the most expensive chain among its dependents. Handing the
// map to ExecutePrioritized launches ready nodes critical-path-first.
func (d *DAG) CriticalPathSeconds(price func(NodeDef) float64) (map[string]float64, error) {
	if _, err := d.TopoOrder(); err != nil {
		return nil, err
	}
	seconds := make(map[string]float64, len(d.tasks))
	dependents := make(map[string][]string, len(d.tasks))
	for id, t := range d.tasks {
		seconds[id] = price(t.def)
		for _, dep := range t.deps {
			dependents[dep] = append(dependents[dep], id)
		}
	}
	return cori.ChainPrices(seconds, dependents)
}

// Size returns the number of nodes.
func (d *DAG) Size() int { return len(d.tasks) }
