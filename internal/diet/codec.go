package diet

import (
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// This file is the wire layout of the bodies a GridRPC call exchanges — the
// rpc.WireBody implementations of the submit, collect, estimate and solve
// requests and replies. Each body is its fields in the order written here,
// in the field encodings rpc.WireBody documents; ARCHITECTURE.md (Transport)
// tabulates them. Every other body of this package is gob.

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

// WireSize implements rpc.WireBody. A submit reply is the ranked server list
// (name and address texts) and the estimate list.
func (s *SubmitReply) WireSize() int {
	n := rpc.LenSize + scheduler.EstimatesSize(s.Estimates)
	for _, srv := range s.Servers {
		n += 2*rpc.LenSize + len(srv.Name) + len(srv.Addr)
	}
	return n
}

// AppendWire implements rpc.WireBody.
func (s *SubmitReply) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Count(len(s.Servers))
	for _, srv := range s.Servers {
		w = w.Text(srv.Name).Text(srv.Addr)
	}
	return scheduler.AppendEstimates(w, s.Estimates)
}

// ReadWire implements rpc.WireBody.
func (s *SubmitReply) ReadWire(r *rpc.Reader) {
	s.Servers = rpc.ReadList(r, 2*rpc.LenSize, func(srv *ServerRef, r *rpc.Reader) {
		srv.Name, srv.Addr = r.Text(), r.Text()
	})
	s.Estimates = scheduler.ReadEstimates(r)
}
