package dataman

import (
	"repro/internal/rpc"
)

// CatalogObjectName is the rpc object under which a hosted catalog answers.
const CatalogObjectName = "datacatalog"

// Access is the catalog surface the SeD-side data plane needs: locating and
// sizing inputs for estimation, fetching them for solves, and publishing
// outputs. *Catalog satisfies it in-process; *Remote satisfies it over rpc,
// which is how a standalone dietsed joins a hosted catalog.
type Access interface {
	AddNode(node, addr string) error
	Publish(id, node string, mode Mode) error
	Locate(id string) ([]string, Mode, error)
	SizeMB(id string) (float64, bool)
	FetchTo(id, toNode string) (Item, error)
	HasReplica(id, node string) bool
}

var (
	_ Access = (*Catalog)(nil)
	_ Access = (*Remote)(nil)
)

// The request and reply bodies of the catalog's methods (rpc.WireBody
// layouts, their fields in order); Locate and SizeMB take the ID alone, and
// AddNode and Publish answer nothing.
type (
	// textPair carries two texts: node and address for AddNode, ID and node
	// for FetchTo and HasReplica.
	textPair   struct{ A, B string }
	publishReq struct {
		ID, Node string
		Mode     Mode
	}
	locateReply struct {
		Nodes []string
		Mode  Mode
	}
	sizeReply struct {
		MB float64
		OK bool
	}
)

func (p *textPair) WireSize() int                      { return rpc.TextSize(p.A, p.B) }
func (p *textPair) AppendWire(w rpc.Writer) rpc.Writer { return w.Text(p.A).Text(p.B) }
func (p *textPair) ReadWire(r *rpc.Reader)             { p.A, p.B = r.Text(), r.Text() }

func (q *publishReq) WireSize() int { return rpc.TextSize(q.ID, q.Node) + rpc.IntSize }
func (q *publishReq) AppendWire(w rpc.Writer) rpc.Writer {
	return w.Text(q.ID).Text(q.Node).Int(int(q.Mode))
}
func (q *publishReq) ReadWire(r *rpc.Reader) {
	q.ID, q.Node, q.Mode = r.Text(), r.Text(), Mode(r.Int())
}

func (p *locateReply) WireSize() int                      { return rpc.TextsSize(p.Nodes) + rpc.IntSize }
func (p *locateReply) AppendWire(w rpc.Writer) rpc.Writer { return w.Texts(p.Nodes).Int(int(p.Mode)) }
func (p *locateReply) ReadWire(r *rpc.Reader)             { p.Nodes, p.Mode = r.Texts(), Mode(r.Int()) }

func (p *sizeReply) WireSize() int                      { return rpc.Float64Size + rpc.BoolSize }
func (p *sizeReply) AppendWire(w rpc.Writer) rpc.Writer { return w.Float64(p.MB).Bool(p.OK) }
func (p *sizeReply) ReadWire(r *rpc.Reader)             { p.MB, p.OK = r.Float64(), r.Bool() }

// Handler exposes the catalog over rpc so remote SeDs can share one platform
// catalog. Transfers a remote FetchTo triggers run (and are measured) on the
// hosting side, where the observers live.
func (c *Catalog) Handler() rpc.Handler { return c.methods().Handler() }

// methods are the catalog's rpc methods.
func (c *Catalog) methods() rpc.Methods {
	return rpc.Methods{
		"AddNode": rpc.Typed(func(q *textPair) (rpc.WireBody, error) { return nil, c.AddNode(q.A, q.B) }),
		"Publish": rpc.Typed(func(q *publishReq) (rpc.WireBody, error) { return nil, c.Publish(q.ID, q.Node, q.Mode) }),
		"Locate": rpc.Typed(func(id *rpc.Text) (*locateReply, error) {
			nodes, mode, err := c.Locate(string(*id))
			return &locateReply{Nodes: nodes, Mode: mode}, err
		}),
		"SizeMB": rpc.Typed(func(id *rpc.Text) (*sizeReply, error) {
			mb, ok := c.SizeMB(string(*id))
			return &sizeReply{MB: mb, OK: ok}, nil
		}),
		"FetchTo": rpc.Typed(func(q *textPair) (*Item, error) {
			it, err := c.FetchTo(q.A, q.B)
			return &it, err
		}),
		"HasReplica": rpc.Typed(func(q *textPair) (*rpc.Bool, error) {
			ok := rpc.Bool(c.HasReplica(q.A, q.B))
			return &ok, nil
		}),
	}
}

// Remote is an Access client against a catalog hosted elsewhere.
type Remote struct {
	Addr string // rpc address of the hosting server
}

// AddNode implements Access.
func (r *Remote) AddNode(node, addr string) error {
	return rpc.Call(r.Addr, CatalogObjectName, "AddNode", &textPair{node, addr}, nil)
}

// Publish implements Access.
func (r *Remote) Publish(id, node string, mode Mode) error {
	return rpc.Call(r.Addr, CatalogObjectName, "Publish", &publishReq{ID: id, Node: node, Mode: mode}, nil)
}

// Locate implements Access.
func (r *Remote) Locate(id string) ([]string, Mode, error) {
	var reply locateReply
	key := rpc.Text(id)
	if err := rpc.Call(r.Addr, CatalogObjectName, "Locate", &key, &reply); err != nil {
		return nil, Persistent, err
	}
	return reply.Nodes, reply.Mode, nil
}

// SizeMB implements Access.
func (r *Remote) SizeMB(id string) (float64, bool) {
	var reply sizeReply
	key := rpc.Text(id)
	if err := rpc.Call(r.Addr, CatalogObjectName, "SizeMB", &key, &reply); err != nil {
		return 0, false
	}
	return reply.MB, reply.OK
}

// FetchTo implements Access.
func (r *Remote) FetchTo(id, toNode string) (Item, error) {
	var it Item
	if err := rpc.Call(r.Addr, CatalogObjectName, "FetchTo", &textPair{id, toNode}, &it); err != nil {
		return Item{}, err
	}
	return it, nil
}

// HasReplica implements Access; a transport error reads as absent.
func (r *Remote) HasReplica(id, node string) bool {
	var ok rpc.Bool
	if err := rpc.Call(r.Addr, CatalogObjectName, "HasReplica", &textPair{id, node}, &ok); err != nil {
		return false
	}
	return bool(ok)
}
