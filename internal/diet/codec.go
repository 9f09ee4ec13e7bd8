package diet

import (
	"repro/internal/cori"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// This file is the wire layout of every body the agents and SeDs exchange —
// the rpc.WireBody implementations of the submit, collect, estimate and solve
// requests and replies, then of registration, monitoring, migration and
// federation. Each body is its fields in the order written here, in the
// field encodings rpc.WireBody documents; ARCHITECTURE.md (Transport)
// tabulates the ones every call carries.

var (
	_ rpc.WireBody = (*Profile)(nil)
	_ rpc.WireBody = (*SolveReply)(nil)
	_ rpc.WireBody = (*EstimateQuery)(nil)
	_ rpc.WireBody = (*EstimateReply)(nil)
	_ rpc.WireBody = (*CollectRequest)(nil)
	_ rpc.WireBody = (*CollectReply)(nil)
	_ rpc.WireBody = (*SubmitRequest)(nil)
	_ rpc.WireBody = (*SubmitReply)(nil)
)

// argFixed is the encoded size of an Arg without the bytes of its data and
// its two texts: kind, base, persistence, rows, cols and three lengths.
const argFixed = 5*rpc.IntSize + 3*rpc.LenSize

func argsSize(args []Arg) int {
	n := rpc.LenSize
	for i := range args {
		a := &args[i]
		n += argFixed + len(a.Data) + len(a.FileName) + len(a.DataID)
	}
	return n
}

func appendArgs(w rpc.Writer, args []Arg) rpc.Writer {
	w = w.Count(len(args))
	for i := range args {
		a := &args[i]
		w = w.Int(int(a.Kind))
		w = w.Int(int(a.Base))
		w = w.Int(int(a.Persist))
		w = w.Int(a.Rows)
		w = w.Int(a.Cols)
		w = w.Text(a.FileName)
		w = w.Text(a.DataID)
		w = w.Bytes(a.Data)
	}
	return w
}

// readArgs reads an argument list; each Data aliases what r reads.
func readArgs(r *rpc.Reader) []Arg {
	return rpc.ReadList(r, argFixed, func(a *Arg, r *rpc.Reader) {
		a.Kind = ArgKind(r.Int())
		a.Base = BaseType(r.Int())
		a.Persist = Persistence(r.Int())
		a.Rows = r.Int()
		a.Cols = r.Int()
		a.FileName = r.Text()
		a.DataID = r.Text()
		a.Data = r.Bytes()
	})
}

// WireSize implements rpc.WireBody. A profile is its service, the three
// indices, the work hint, the request ID and the argument list.
func (p *Profile) WireSize() int {
	return 2*rpc.LenSize + len(p.Service) + len(p.RequestID) + 3*rpc.IntSize + rpc.Float64Size + argsSize(p.Args)
}

// AppendWire implements rpc.WireBody.
func (p *Profile) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Text(p.Service)
	w = w.Int(p.LastIn)
	w = w.Int(p.LastInOut)
	w = w.Int(p.LastOut)
	w = w.Float64(p.WorkGFlops)
	w = w.Text(p.RequestID)
	return appendArgs(w, p.Args)
}

// ReadWire implements rpc.WireBody. Beyond the layout it holds a profile off
// the wire to the invariant NewProfile establishes — ordered indices and
// LastOut+1 arguments — because the SeD indexes the arguments by them.
func (p *Profile) ReadWire(r *rpc.Reader) {
	p.Service = r.Text()
	p.LastIn = r.Int()
	p.LastInOut = r.Int()
	p.LastOut = r.Int()
	p.WorkGFlops = r.Float64()
	p.RequestID = r.Text()
	p.Args = readArgs(r)
	if p.LastIn < -1 || p.LastInOut < p.LastIn || p.LastOut < p.LastInOut || len(p.Args) != p.LastOut+1 {
		r.Fail("profile indices in=%d inout=%d out=%d with %d arguments", p.LastIn, p.LastInOut, p.LastOut, len(p.Args))
	}
}

// WireSize implements rpc.WireBody. A solve reply is the two timings and the
// INOUT/OUT argument list.
func (s *SolveReply) WireSize() int { return 2*rpc.Float64Size + argsSize(s.Args) }

// AppendWire implements rpc.WireBody.
func (s *SolveReply) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Float64(s.Timing.QueueWaitMS)
	w = w.Float64(s.Timing.ComputeMS)
	return appendArgs(w, s.Args)
}

// ReadWire implements rpc.WireBody.
func (s *SolveReply) ReadWire(r *rpc.Reader) {
	s.Timing.QueueWaitMS = r.Float64()
	s.Timing.ComputeMS = r.Float64()
	s.Args = readArgs(r)
}

// WireSize implements rpc.WireBody.
func (q *EstimateQuery) WireSize() int {
	return rpc.LenSize + len(q.Service) + rpc.TextsSize(q.DataIDs)
}

// AppendWire implements rpc.WireBody.
func (q *EstimateQuery) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Text(q.Service).Texts(q.DataIDs)
}

// ReadWire implements rpc.WireBody.
func (q *EstimateQuery) ReadWire(r *rpc.Reader) {
	q.Service = r.Text()
	q.DataIDs = r.Texts()
}

// WireSize implements rpc.WireBody.
func (e *EstimateReply) WireSize() int { return rpc.BoolSize + e.Est.WireSize() }

// AppendWire implements rpc.WireBody.
func (e *EstimateReply) AppendWire(w rpc.Writer) rpc.Writer {
	return e.Est.AppendWire(w.Bool(e.OK))
}

// ReadWire implements rpc.WireBody.
func (e *EstimateReply) ReadWire(r *rpc.Reader) {
	e.OK = r.Bool()
	e.Est.ReadWire(r)
}

// WireSize implements rpc.WireBody.
func (c *CollectRequest) WireSize() int {
	return 2*rpc.LenSize + len(c.Service) + len(c.RequestID) + rpc.IntSize + rpc.TextsSize(c.DataIDs)
}

// AppendWire implements rpc.WireBody.
func (c *CollectRequest) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Text(c.Service)
	w = w.Int(c.Limit)
	w = w.Text(c.RequestID)
	return w.Texts(c.DataIDs)
}

// ReadWire implements rpc.WireBody.
func (c *CollectRequest) ReadWire(r *rpc.Reader) {
	c.Service = r.Text()
	c.Limit = r.Int()
	c.RequestID = r.Text()
	c.DataIDs = r.Texts()
}

// WireSize implements rpc.WireBody.
func (c *CollectReply) WireSize() int { return scheduler.EstimatesSize(c.Estimates) }

// AppendWire implements rpc.WireBody.
func (c *CollectReply) AppendWire(w rpc.Writer) rpc.Writer {
	return scheduler.AppendEstimates(w, c.Estimates)
}

// ReadWire implements rpc.WireBody.
func (c *CollectReply) ReadWire(r *rpc.Reader) { c.Estimates = scheduler.ReadEstimates(r) }

// WireSize implements rpc.WireBody.
func (s *SubmitRequest) WireSize() int {
	return 2*rpc.LenSize + len(s.Service) + len(s.RequestID) + rpc.Float64Size + rpc.IntSize + rpc.TextsSize(s.DataIDs)
}

// AppendWire implements rpc.WireBody.
func (s *SubmitRequest) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Text(s.Service)
	w = w.Float64(s.WorkGFlops)
	w = w.Int(s.Seq)
	w = w.Text(s.RequestID)
	return w.Texts(s.DataIDs)
}

// ReadWire implements rpc.WireBody.
func (s *SubmitRequest) ReadWire(r *rpc.Reader) {
	s.Service = r.Text()
	s.WorkGFlops = r.Float64()
	s.Seq = r.Int()
	s.RequestID = r.Text()
	s.DataIDs = r.Texts()
}

// WireSize implements rpc.WireBody. A submit reply is the ranked estimate
// list, each estimate carrying its SeD's address.
func (s *SubmitReply) WireSize() int { return scheduler.EstimatesSize(s.Estimates) }

// AppendWire implements rpc.WireBody.
func (s *SubmitReply) AppendWire(w rpc.Writer) rpc.Writer {
	return scheduler.AppendEstimates(w, s.Estimates)
}

// ReadWire implements rpc.WireBody.
func (s *SubmitReply) ReadWire(r *rpc.Reader) { s.Estimates = scheduler.ReadEstimates(r) }

// The bodies of registration, monitoring, migration and federation. A
// topology node is its name, kind and address, then its children.

func (c *ChildInfo) WireSize() int { return rpc.TextSize(c.Name, c.Addr, c.Kind, c.Cluster) }
func (c *ChildInfo) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Text(c.Name).Text(c.Addr).Text(c.Kind).Text(c.Cluster)
}
func (c *ChildInfo) ReadWire(r *rpc.Reader) {
	c.Name, c.Addr, c.Kind, c.Cluster = r.Text(), r.Text(), r.Text(), r.Text()
}

func (c *ChildRegisterReply) WireSize() int                      { return rpc.ListSize(c.Prior) }
func (c *ChildRegisterReply) AppendWire(w rpc.Writer) rpc.Writer { return rpc.AppendList(w, c.Prior) }
func (c *ChildRegisterReply) ReadWire(r *rpc.Reader)             { c.Prior = rpc.ReadBodies[cori.Model](r) }

func (m *ModelsReply) WireSize() int {
	return rpc.TextSize(m.Cluster) + rpc.TimeSize + rpc.ListSize(m.Models)
}
func (m *ModelsReply) AppendWire(w rpc.Writer) rpc.Writer {
	return rpc.AppendList(w.Text(m.Cluster).Time(m.At), m.Models)
}
func (m *ModelsReply) ReadWire(r *rpc.Reader) {
	m.Cluster, m.At, m.Models = r.Text(), r.Time(), rpc.ReadBodies[cori.Model](r)
}

// maxTopologyDepth bounds the nesting a TopologyNode decoder accepts: a
// frame of nothing but first children would otherwise recurse once per 16
// bytes, deep enough to exhaust the stack.
const maxTopologyDepth = 64

func (n *TopologyNode) WireSize() int {
	return rpc.TextSize(n.Name, n.Kind, n.Addr) + rpc.ListSize(n.Children)
}
func (n *TopologyNode) AppendWire(w rpc.Writer) rpc.Writer {
	return rpc.AppendList(w.Text(n.Name).Text(n.Kind).Text(n.Addr), n.Children)
}
func (n *TopologyNode) ReadWire(r *rpc.Reader) { n.read(r, 1) }

func (n *TopologyNode) read(r *rpc.Reader, depth int) {
	if depth > maxTopologyDepth {
		r.Fail("topology nested deeper than %d", maxTopologyDepth)
		return
	}
	n.Name, n.Kind, n.Addr = r.Text(), r.Text(), r.Text()
	n.Children = rpc.ReadList(r, 4*rpc.LenSize, func(c *TopologyNode, r *rpc.Reader) { c.read(r, depth+1) })
}

func (s *Stats) WireSize() int {
	return rpc.TextSize(s.Name, s.Cluster, s.Parent) + 3*rpc.IntSize + 3*rpc.Float64Size
}
func (s *Stats) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Text(s.Name).Text(s.Cluster).Text(s.Parent).Float64(s.Power)
	return w.Int(s.Queued).Int(s.Running).Int(s.Solved).Float64(s.BusySecs).Float64(s.LastSolve)
}
func (s *Stats) ReadWire(r *rpc.Reader) {
	s.Name, s.Cluster, s.Parent, s.Power = r.Text(), r.Text(), r.Text(), r.Float64()
	s.Queued, s.Running, s.Solved, s.BusySecs, s.LastSolve = r.Int(), r.Int(), r.Int(), r.Float64(), r.Float64()
}

func (q *ReparentRequest) WireSize() int {
	return rpc.TextSize(q.Parent, q.ParentAddr) + rpc.Float64Size
}
func (q *ReparentRequest) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Text(q.Parent).Text(q.ParentAddr).Float64(q.NewPower)
}
func (q *ReparentRequest) ReadWire(r *rpc.Reader) {
	q.Parent, q.ParentAddr, q.NewPower = r.Text(), r.Text(), r.Float64()
}

func (q *MigrateChildRequest) WireSize() int {
	return rpc.TextSize(q.Child, q.NewParent, q.NewParentAddr) + rpc.Float64Size
}
func (q *MigrateChildRequest) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Text(q.Child).Text(q.NewParent).Text(q.NewParentAddr).Float64(q.NewPower)
}
func (q *MigrateChildRequest) ReadWire(r *rpc.Reader) {
	q.Child, q.NewParent, q.NewParentAddr, q.NewPower = r.Text(), r.Text(), r.Text(), r.Float64()
}

func (q *PeerRegisterRequest) WireSize() int {
	return rpc.IntSize + rpc.TextSize(q.Peer.Name, q.Peer.Addr)
}
func (q *PeerRegisterRequest) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Int(q.SchemaVersion).Text(q.Peer.Name).Text(q.Peer.Addr)
}
func (q *PeerRegisterRequest) ReadWire(r *rpc.Reader) {
	q.SchemaVersion, q.Peer.Name, q.Peer.Addr = r.Int(), r.Text(), r.Text()
}

func (p *PeerRegisterReply) WireSize() int { return rpc.IntSize + rpc.BoolSize + rpc.TextSize(p.Name) }
func (p *PeerRegisterReply) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Int(p.SchemaVersion).Bool(p.OK).Text(p.Name)
}
func (p *PeerRegisterReply) ReadWire(r *rpc.Reader) {
	p.SchemaVersion, p.OK, p.Name = r.Int(), r.Bool(), r.Text()
}

func (q *PeerForwardRequest) WireSize() int {
	return 3*rpc.IntSize + rpc.Float64Size + rpc.TextSize(q.Service, q.RequestID) + rpc.TextsSize(q.Visited)
}
func (q *PeerForwardRequest) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Int(q.SchemaVersion).Text(q.Service).Float64(q.WorkGFlops).Int(q.Seq)
	return w.Text(q.RequestID).Int(q.Hops).Texts(q.Visited)
}
func (q *PeerForwardRequest) ReadWire(r *rpc.Reader) {
	q.SchemaVersion, q.Service, q.WorkGFlops, q.Seq = r.Int(), r.Text(), r.Float64(), r.Int()
	q.RequestID, q.Hops, q.Visited = r.Text(), r.Int(), r.Texts()
}

func (p *PeerForwardReply) WireSize() int {
	return rpc.IntSize + scheduler.EstimatesSize(p.Estimates) + rpc.BoolSize
}
func (p *PeerForwardReply) AppendWire(w rpc.Writer) rpc.Writer {
	return scheduler.AppendEstimates(w.Int(p.SchemaVersion), p.Estimates).Bool(p.Dropped)
}
func (p *PeerForwardReply) ReadWire(r *rpc.Reader) {
	p.SchemaVersion, p.Estimates, p.Dropped = r.Int(), scheduler.ReadEstimates(r), r.Bool()
}
