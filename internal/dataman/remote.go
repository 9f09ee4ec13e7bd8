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
	ReplicaCount(id string) int
	HasReplica(id, node string) bool
}

var (
	_ Access = (*Catalog)(nil)
	_ Access = (*Remote)(nil)
)

// Wire request/reply shapes. Exported fields keep gob happy; the types stay
// private to the package on both ends.
type (
	nodeReq    struct{ Node, Addr string }
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
	fetchToReq struct{ ID, Node string }
	replicaAsk struct{ ID, Node string }
)

// Handler exposes the catalog over rpc so remote SeDs can share one platform
// catalog. Transfers a remote FetchTo triggers run (and are measured) on the
// hosting side, where the observers live.
func (c *Catalog) Handler() rpc.Handler {
	return rpc.HandlerFunc(map[string]func([]byte) ([]byte, error){
		"AddNode": func(body []byte) ([]byte, error) {
			var req nodeReq
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := c.AddNode(req.Node, req.Addr); err != nil {
				return nil, err
			}
			return rpc.Encode(true)
		},
		"Publish": func(body []byte) ([]byte, error) {
			var req publishReq
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := c.Publish(req.ID, req.Node, req.Mode); err != nil {
				return nil, err
			}
			return rpc.Encode(true)
		},
		"Locate": func(body []byte) ([]byte, error) {
			var id string
			if err := rpc.Decode(body, &id); err != nil {
				return nil, err
			}
			nodes, mode, err := c.Locate(id)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(locateReply{Nodes: nodes, Mode: mode})
		},
		"SizeMB": func(body []byte) ([]byte, error) {
			var id string
			if err := rpc.Decode(body, &id); err != nil {
				return nil, err
			}
			mb, ok := c.SizeMB(id)
			return rpc.Encode(sizeReply{MB: mb, OK: ok})
		},
		"FetchTo": func(body []byte) ([]byte, error) {
			var req fetchToReq
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			it, err := c.FetchTo(req.ID, req.Node)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(&it)
		},
		"ReplicaCount": func(body []byte) ([]byte, error) {
			var id string
			if err := rpc.Decode(body, &id); err != nil {
				return nil, err
			}
			return rpc.Encode(c.ReplicaCount(id))
		},
		"HasReplica": func(body []byte) ([]byte, error) {
			var req replicaAsk
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			return rpc.Encode(c.HasReplica(req.ID, req.Node))
		},
	})
}

// Remote is an Access client against a catalog hosted elsewhere.
type Remote struct {
	Addr string // rpc address of the hosting server
}

// AddNode implements Access.
func (r *Remote) AddNode(node, addr string) error {
	var ok bool
	return rpc.Call(r.Addr, CatalogObjectName, "AddNode", nodeReq{Node: node, Addr: addr}, &ok)
}

// Publish implements Access.
func (r *Remote) Publish(id, node string, mode Mode) error {
	var ok bool
	return rpc.Call(r.Addr, CatalogObjectName, "Publish", publishReq{ID: id, Node: node, Mode: mode}, &ok)
}

// Locate implements Access.
func (r *Remote) Locate(id string) ([]string, Mode, error) {
	var reply locateReply
	if err := rpc.Call(r.Addr, CatalogObjectName, "Locate", id, &reply); err != nil {
		return nil, Persistent, err
	}
	return reply.Nodes, reply.Mode, nil
}

// SizeMB implements Access.
func (r *Remote) SizeMB(id string) (float64, bool) {
	var reply sizeReply
	if err := rpc.Call(r.Addr, CatalogObjectName, "SizeMB", id, &reply); err != nil {
		return 0, false
	}
	return reply.MB, reply.OK
}

// FetchTo implements Access.
func (r *Remote) FetchTo(id, toNode string) (Item, error) {
	var it Item
	if err := rpc.Call(r.Addr, CatalogObjectName, "FetchTo", fetchToReq{ID: id, Node: toNode}, &it); err != nil {
		return Item{}, err
	}
	return it, nil
}

// ReplicaCount implements Access; a transport error reads as unpublished.
func (r *Remote) ReplicaCount(id string) int {
	var n int
	if err := rpc.Call(r.Addr, CatalogObjectName, "ReplicaCount", id, &n); err != nil {
		return 0
	}
	return n
}

// HasReplica implements Access; a transport error reads as absent.
func (r *Remote) HasReplica(id, node string) bool {
	var ok bool
	if err := rpc.Call(r.Addr, CatalogObjectName, "HasReplica", replicaAsk{ID: id, Node: node}, &ok); err != nil {
		return false
	}
	return ok
}
