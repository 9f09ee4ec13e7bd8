// Package diet implements the GridRPC middleware of the paper: a
// client/agent/server architecture in which clients submit problem profiles
// to a Master Agent, a hierarchy of agents collects computation abilities
// from Server Daemons (SeDs), a scheduling policy picks the best server, and
// the client then ships its data to the chosen SeD for solving.
//
// The data model mirrors DIET's: a problem is described by a profile with
// IN, INOUT and OUT arguments of scalar/vector/matrix/string/file types and
// volatile/persistent/sticky persistence modes.
//
// This package is the paper's §4 surface in one import: everything an
// application needs to "gridify" a service the way §5 gridifies RAMSES
// (examples/quickstart uses nothing else). Plug-in policies come from
// internal/scheduler, the platform data catalog from internal/dataman.
package diet

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BaseType enumerates element types of profile arguments.
type BaseType int

// Base types (DIET_CHAR, DIET_INT, DIET_DOUBLE of the C API).
const (
	Char BaseType = iota
	Int
	Double
)

// String implements fmt.Stringer.
func (b BaseType) String() string {
	switch b {
	case Char:
		return "char"
	case Int:
		return "int"
	case Double:
		return "double"
	}
	return fmt.Sprintf("BaseType(%d)", int(b))
}

// ArgKind enumerates argument container types.
type ArgKind int

// Argument kinds (DIET_SCALAR, DIET_VECTOR, ... of the C API).
const (
	Scalar ArgKind = iota
	Vector
	Matrix
	Text
	File
)

// String implements fmt.Stringer.
func (k ArgKind) String() string {
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
	return fmt.Sprintf("ArgKind(%d)", int(k))
}

// Persistence enumerates DIET data persistence modes.
type Persistence int

// Persistence modes: volatile data moves with every call, persistent data
// stays on the server addressed by a DataID, sticky data stays and cannot be
// moved to another server.
const (
	Volatile Persistence = iota
	Persistent
	Sticky
)

// String implements fmt.Stringer.
func (p Persistence) String() string {
	switch p {
	case Volatile:
		return "volatile"
	case Persistent:
		return "persistent"
	case Sticky:
		return "sticky"
	}
	return fmt.Sprintf("Persistence(%d)", int(p))
}

// Direction classifies profile arguments.
type Direction int

// Argument directions.
const (
	In Direction = iota
	InOut
	Out
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case In:
		return "IN"
	case InOut:
		return "INOUT"
	}
	return "OUT"
}

// Arg is one profile argument. Data carries the encoded payload; for files
// FileName preserves the original name. A persistent argument may carry a
// DataID instead of inline data, referring to data already resident on the
// server.
//
// Data of an argument decoded off the wire is not a copy: it shares the
// frame it arrived in (a SeD's view of the request, a client's view of the
// solved OUT arguments), so it keeps that whole frame alive for as long as it
// is referenced. Code that retains a small argument beyond the call —
// SeD.storePersistent does — must clone it.
type Arg struct {
	Kind       ArgKind
	Base       BaseType
	Persist    Persistence
	Data       []byte
	FileName   string
	Rows, Cols int
	DataID     string
}

// Profile is a problem description plus its argument values: the
// diet_profile_t of the C API. Args[0..LastIn] are IN, (LastIn..LastInOut]
// are INOUT, (LastInOut..LastOut] are OUT; LastIn == -1 means no IN args,
// and so on.
type Profile struct {
	Service                    string
	LastIn, LastInOut, LastOut int
	Args                       []Arg
	// WorkGFlops is the client's work estimate for this call (0 = unknown).
	// It travels to the SeD so the CoRI monitor can pair each observed solve
	// duration with its work size and fit a duration-vs-work model.
	WorkGFlops float64
	// RequestID is the trace identity diet.Client stamps on submission; it
	// rides the profile to the SeD so every span of one request — submit,
	// schedule, queue, reserve, solve, complete — shares an ID. Empty when
	// the caller bypasses Client.Call.
	RequestID string
}

// NewProfile allocates a profile for the named service with the DIET index
// convention, e.g. NewProfile("ramsesZoom2", 6, 6, 8) describes seven IN
// arguments (0–6), no INOUT, and two OUT arguments (7–8).
func NewProfile(service string, lastIn, lastInOut, lastOut int) (*Profile, error) {
	if service == "" {
		return nil, fmt.Errorf("diet: profile needs a service name")
	}
	if lastIn < -1 || lastInOut < lastIn || lastOut < lastInOut {
		return nil, fmt.Errorf("diet: invalid profile indices in=%d inout=%d out=%d", lastIn, lastInOut, lastOut)
	}
	return &Profile{
		Service: service,
		LastIn:  lastIn, LastInOut: lastInOut, LastOut: lastOut,
		Args: make([]Arg, lastOut+1),
	}, nil
}

// NArgs returns the number of arguments.
func (p *Profile) NArgs() int { return len(p.Args) }

// Direction returns the direction of argument i.
func (p *Profile) Direction(i int) Direction {
	switch {
	case i <= p.LastIn:
		return In
	case i <= p.LastInOut:
		return InOut
	default:
		return Out
	}
}

// checkIndex validates an argument index.
func (p *Profile) checkIndex(i int) error {
	if i < 0 || i >= len(p.Args) {
		return fmt.Errorf("diet: argument index %d out of range [0,%d)", i, len(p.Args))
	}
	return nil
}

// SetScalarInt stores a 64-bit integer scalar at index i.
func (p *Profile) SetScalarInt(i int, v int64, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	p.Args[i] = Arg{Kind: Scalar, Base: Int, Persist: persist, Data: buf}
	return nil
}

// ScalarInt reads a 64-bit integer scalar from index i.
func (p *Profile) ScalarInt(i int) (int64, error) {
	if err := p.checkIndex(i); err != nil {
		return 0, err
	}
	a := &p.Args[i]
	if a.Kind != Scalar || a.Base != Int {
		return 0, fmt.Errorf("diet: argument %d is %s/%s, not scalar/int", i, a.Kind, a.Base)
	}
	if len(a.Data) != 8 {
		return 0, fmt.Errorf("diet: argument %d has %d payload bytes, want 8", i, len(a.Data))
	}
	return int64(binary.LittleEndian.Uint64(a.Data)), nil
}

// SetScalarDouble stores a float64 scalar at index i.
func (p *Profile) SetScalarDouble(i int, v float64, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
	p.Args[i] = Arg{Kind: Scalar, Base: Double, Persist: persist, Data: buf}
	return nil
}

// ScalarDouble reads a float64 scalar from index i.
func (p *Profile) ScalarDouble(i int) (float64, error) {
	if err := p.checkIndex(i); err != nil {
		return 0, err
	}
	a := &p.Args[i]
	if a.Kind != Scalar || a.Base != Double {
		return 0, fmt.Errorf("diet: argument %d is %s/%s, not scalar/double", i, a.Kind, a.Base)
	}
	if len(a.Data) != 8 {
		return 0, fmt.Errorf("diet: argument %d has %d payload bytes, want 8", i, len(a.Data))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(a.Data)), nil
}

// SetVectorDouble stores a float64 vector at index i.
func (p *Profile) SetVectorDouble(i int, v []float64, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	buf := make([]byte, 8*len(v))
	for j, x := range v {
		binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(x))
	}
	p.Args[i] = Arg{Kind: Vector, Base: Double, Persist: persist, Data: buf, Rows: len(v)}
	return nil
}

// VectorDouble reads a float64 vector from index i.
func (p *Profile) VectorDouble(i int) ([]float64, error) {
	if err := p.checkIndex(i); err != nil {
		return nil, err
	}
	a := &p.Args[i]
	if a.Kind != Vector || a.Base != Double {
		return nil, fmt.Errorf("diet: argument %d is %s/%s, not vector/double", i, a.Kind, a.Base)
	}
	if len(a.Data) != 8*a.Rows {
		return nil, fmt.Errorf("diet: argument %d has %d payload bytes, want %d", i, len(a.Data), 8*a.Rows)
	}
	out := make([]float64, a.Rows)
	for j := range out {
		out[j] = math.Float64frombits(binary.LittleEndian.Uint64(a.Data[8*j:]))
	}
	return out, nil
}

// SetMatrixDouble stores a rows×cols float64 matrix (row major) at index i.
func (p *Profile) SetMatrixDouble(i int, rows, cols int, v []float64, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	if rows*cols != len(v) {
		return fmt.Errorf("diet: matrix %dx%d needs %d values, got %d", rows, cols, rows*cols, len(v))
	}
	buf := make([]byte, 8*len(v))
	for j, x := range v {
		binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(x))
	}
	p.Args[i] = Arg{Kind: Matrix, Base: Double, Persist: persist, Data: buf, Rows: rows, Cols: cols}
	return nil
}

// MatrixDouble reads a float64 matrix from index i.
func (p *Profile) MatrixDouble(i int) (rows, cols int, v []float64, err error) {
	if err := p.checkIndex(i); err != nil {
		return 0, 0, nil, err
	}
	a := &p.Args[i]
	if a.Kind != Matrix || a.Base != Double {
		return 0, 0, nil, fmt.Errorf("diet: argument %d is %s/%s, not matrix/double", i, a.Kind, a.Base)
	}
	if len(a.Data) != 8*a.Rows*a.Cols {
		return 0, 0, nil, fmt.Errorf("diet: argument %d has %d payload bytes, want %d", i, len(a.Data), 8*a.Rows*a.Cols)
	}
	v = make([]float64, a.Rows*a.Cols)
	for j := range v {
		v[j] = math.Float64frombits(binary.LittleEndian.Uint64(a.Data[8*j:]))
	}
	return a.Rows, a.Cols, v, nil
}

// SetString stores a string at index i.
func (p *Profile) SetString(i int, s string, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	p.Args[i] = Arg{Kind: Text, Base: Char, Persist: persist, Data: []byte(s)}
	return nil
}

// StringArg reads a string from index i.
func (p *Profile) StringArg(i int) (string, error) {
	if err := p.checkIndex(i); err != nil {
		return "", err
	}
	a := &p.Args[i]
	if a.Kind != Text {
		return "", fmt.Errorf("diet: argument %d is %s, not string", i, a.Kind)
	}
	return string(a.Data), nil
}

// SetFileBytes stores a file argument (name + content) at index i. DIET
// transfers volatile files with the call, which is what the paper's client
// does with <namelist.nml>.
func (p *Profile) SetFileBytes(i int, name string, content []byte, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	p.Args[i] = Arg{Kind: File, Base: Char, Persist: persist, Data: content, FileName: name}
	return nil
}

// SetFileRef stores a reference to a platform-resident file at index i: the
// argument carries only the DataID, no payload, and the solving server pulls
// the bytes from the data manager — free when a replica is already local,
// which is exactly what data-aware placement optimises for. References must
// be persistent or sticky; volatile data always travels inline.
func (p *Profile) SetFileRef(i int, name, id string, persist Persistence) error {
	if err := p.checkIndex(i); err != nil {
		return err
	}
	if id == "" {
		return fmt.Errorf("diet: file reference at %d needs a DataID", i)
	}
	if persist == Volatile {
		return fmt.Errorf("diet: file reference %q must be persistent or sticky", id)
	}
	p.Args[i] = Arg{Kind: File, Base: Char, Persist: persist, FileName: name, DataID: id}
	return nil
}

// FileBytes reads a file argument from index i.
func (p *Profile) FileBytes(i int) (name string, content []byte, err error) {
	if err := p.checkIndex(i); err != nil {
		return "", nil, err
	}
	a := &p.Args[i]
	if a.Kind != File {
		return "", nil, fmt.Errorf("diet: argument %d is %s, not file", i, a.Kind)
	}
	return a.FileName, a.Data, nil
}

// PayloadBytes sums the argument payload sizes with the given directions,
// used to model and measure transfer costs.
func (p *Profile) PayloadBytes(dirs ...Direction) int {
	want := make(map[Direction]bool, len(dirs))
	for _, d := range dirs {
		want[d] = true
	}
	total := 0
	for i := range p.Args {
		if want[p.Direction(i)] {
			total += len(p.Args[i].Data)
		}
	}
	return total
}

// ArgDesc is an argument's type signature.
type ArgDesc struct {
	Kind ArgKind
	Base BaseType
}

// ProfileDesc is a service signature: the diet_profile_desc_t a server
// registers in its service table and a client must match.
type ProfileDesc struct {
	Service                    string
	LastIn, LastInOut, LastOut int
	Args                       []ArgDesc
}

// NewProfileDesc allocates a descriptor with the DIET index convention.
func NewProfileDesc(service string, lastIn, lastInOut, lastOut int) (*ProfileDesc, error) {
	p, err := NewProfile(service, lastIn, lastInOut, lastOut)
	if err != nil {
		return nil, err
	}
	return &ProfileDesc{
		Service: service,
		LastIn:  lastIn, LastInOut: lastInOut, LastOut: lastOut,
		Args: make([]ArgDesc, len(p.Args)),
	}, nil
}

// Set records the type of argument i.
func (d *ProfileDesc) Set(i int, kind ArgKind, base BaseType) error {
	if i < 0 || i >= len(d.Args) {
		return fmt.Errorf("diet: descriptor index %d out of range [0,%d)", i, len(d.Args))
	}
	d.Args[i] = ArgDesc{Kind: kind, Base: base}
	return nil
}

// DescOf extracts the signature of a concrete profile.
func DescOf(p *Profile) *ProfileDesc {
	d := &ProfileDesc{
		Service: p.Service,
		LastIn:  p.LastIn, LastInOut: p.LastInOut, LastOut: p.LastOut,
		Args: make([]ArgDesc, len(p.Args)),
	}
	for i := range p.Args {
		d.Args[i] = ArgDesc{Kind: p.Args[i].Kind, Base: p.Args[i].Base}
	}
	return d
}

// Matches verifies a concrete profile against the descriptor. OUT arguments
// are not type-checked (the server fills them), matching DIET's behaviour of
// letting the client pass placeholder OUT arguments.
func (d *ProfileDesc) Matches(p *Profile) error {
	if p.Service != d.Service {
		return fmt.Errorf("diet: profile service %q does not match descriptor %q", p.Service, d.Service)
	}
	if p.LastIn != d.LastIn || p.LastInOut != d.LastInOut || p.LastOut != d.LastOut {
		return fmt.Errorf("diet: profile indices (%d,%d,%d) do not match descriptor (%d,%d,%d)",
			p.LastIn, p.LastInOut, p.LastOut, d.LastIn, d.LastInOut, d.LastOut)
	}
	if len(p.Args) != len(d.Args) {
		return fmt.Errorf("diet: profile has %d arguments, descriptor %d", len(p.Args), len(d.Args))
	}
	for i := range d.Args {
		if p.Direction(i) == Out {
			continue
		}
		if p.Args[i].Kind != d.Args[i].Kind || p.Args[i].Base != d.Args[i].Base {
			return fmt.Errorf("diet: argument %d is %s/%s, descriptor wants %s/%s",
				i, p.Args[i].Kind, p.Args[i].Base, d.Args[i].Kind, d.Args[i].Base)
		}
	}
	return nil
}
