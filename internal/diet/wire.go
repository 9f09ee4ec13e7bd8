package diet

import (
	"fmt"

	"repro/internal/gwproto"
)

// This file converts between the in-memory Profile and the gateway's JSON
// wire contract (gwproto): the gateway decodes incoming requests and encodes
// results, and a Go program posting to a gateway encodes its profile with
// WireRequest.

// wireKind maps ArgKind to its wire tag.
func wireKind(k ArgKind) string {
	switch k {
	case Scalar:
		return "scalar"
	case Vector:
		return "vector"
	case Matrix:
		return "matrix"
	case Text:
		return "string"
	case File:
		return "file"
	}
	return ""
}

// wirePersist maps Persistence to its wire tag ("" for the volatile
// default, so steady-state JSON stays small).
func wirePersist(p Persistence) string {
	switch p {
	case Persistent:
		return "persistent"
	case Sticky:
		return "sticky"
	}
	return ""
}

// parsePersist maps a wire persistence tag back.
func parsePersist(s string) (Persistence, error) {
	switch s {
	case "", "volatile":
		return Volatile, nil
	case "persistent":
		return Persistent, nil
	case "sticky":
		return Sticky, nil
	}
	return Volatile, fmt.Errorf("diet: unknown persistence %q", s)
}

// WireArgs encodes the profile's arguments for the gateway API.
func (p *Profile) WireArgs() ([]gwproto.Arg, error) {
	out := make([]gwproto.Arg, len(p.Args))
	for i := range p.Args {
		a := &p.Args[i]
		w := gwproto.Arg{Persist: wirePersist(a.Persist), DataID: a.DataID}
		if a.DataID != "" && len(a.Data) == 0 {
			// A persistent reference travels as just its ID.
			w.Kind = wireKind(a.Kind)
			out[i] = w
			continue
		}
		switch {
		case a.Kind == Scalar && a.Base == Int:
			v, err := p.ScalarInt(i)
			if err != nil {
				return nil, err
			}
			w.Kind, w.Base, w.Int = "scalar", "int", &v
		case a.Kind == Scalar && a.Base == Double:
			v, err := p.ScalarDouble(i)
			if err != nil {
				return nil, err
			}
			w.Kind, w.Base, w.Double = "scalar", "double", &v
		case a.Kind == Vector && a.Base == Double:
			v, err := p.VectorDouble(i)
			if err != nil {
				return nil, err
			}
			w.Kind, w.Base, w.Vector = "vector", "double", v
		case a.Kind == Matrix && a.Base == Double:
			rows, cols, v, err := p.MatrixDouble(i)
			if err != nil {
				return nil, err
			}
			w.Kind, w.Base, w.Matrix, w.Rows, w.Cols = "matrix", "double", v, rows, cols
		case a.Kind == Text:
			s := string(a.Data)
			w.Kind, w.Str = "string", &s
		case a.Kind == File:
			w.Kind, w.FileName, w.File = "file", a.FileName, a.Data
		case len(a.Data) == 0:
			// Untyped placeholder (an OUT argument awaiting the server).
		default:
			return nil, fmt.Errorf("diet: argument %d (%s/%s) has no wire representation", i, a.Kind, a.Base)
		}
		out[i] = w
	}
	return out, nil
}

// applyWireArg decodes one wire argument into profile slot i.
func (p *Profile) applyWireArg(i int, w gwproto.Arg) error {
	persist, err := parsePersist(w.Persist)
	if err != nil {
		return err
	}
	switch w.Kind {
	case "":
		p.Args[i] = Arg{} // placeholder OUT slot
		return nil
	case "scalar":
		switch {
		case w.Int != nil:
			return p.SetScalarInt(i, *w.Int, persist)
		case w.Double != nil:
			return p.SetScalarDouble(i, *w.Double, persist)
		case w.DataID != "":
			p.Args[i] = Arg{Kind: Scalar, Persist: persist, DataID: w.DataID}
			return nil
		}
		return fmt.Errorf("diet: argument %d: scalar needs an int or double payload", i)
	case "vector":
		return p.SetVectorDouble(i, w.Vector, persist)
	case "matrix":
		return p.SetMatrixDouble(i, w.Rows, w.Cols, w.Matrix, persist)
	case "string":
		s := ""
		if w.Str != nil {
			s = *w.Str
		}
		return p.SetString(i, s, persist)
	case "file":
		return p.SetFileBytes(i, w.FileName, w.File, persist)
	}
	return fmt.Errorf("diet: argument %d: unknown kind %q", i, w.Kind)
}

// ProfileFromWire builds a Profile from a gateway solve request.
func ProfileFromWire(req gwproto.SolveRequest) (*Profile, error) {
	p, err := NewProfile(req.Service, req.LastIn, req.LastInOut, req.LastOut)
	if err != nil {
		return nil, err
	}
	p.WorkGFlops = req.WorkGFlops
	if len(req.Args) > len(p.Args) {
		return nil, fmt.Errorf("diet: wire request has %d args, indices allow %d", len(req.Args), len(p.Args))
	}
	for i, w := range req.Args {
		if err := p.applyWireArg(i, w); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// WireRequest encodes the profile (plus its work hint) as a gateway solve
// request.
func (p *Profile) WireRequest() (gwproto.SolveRequest, error) {
	args, err := p.WireArgs()
	if err != nil {
		return gwproto.SolveRequest{}, err
	}
	return gwproto.SolveRequest{
		SchemaVersion: gwproto.Version,
		Service:       p.Service,
		WorkGFlops:    p.WorkGFlops,
		LastIn:        p.LastIn,
		LastInOut:     p.LastInOut,
		LastOut:       p.LastOut,
		Args:          args,
	}, nil
}
