// Package gwproto is the versioned wire contract of the client gateway's
// HTTP JSON API. It is a leaf package: diet imports it to convert profiles
// (Profile.WireRequest, ProfileFromWire) and the gateway imports it to
// serve, so the two cannot drift apart — and neither import direction
// cycles.
//
// Every request and reply carries an explicit SchemaVersion (the same idiom
// as cori snapshots and the diet peer-forward RPCs); a server rejects any
// version it does not speak with HTTP 400 rather than misparsing it. Bump
// Version on any incompatible change.
package gwproto

import "errors"

// Version is the wire schema of the gateway HTTP API (/api/v1).
const Version = 1

// ErrOverload is returned (and mapped to HTTP 503) when the gateway's
// admission queue is full and the request is shed instead of queued. Typed
// so callers can back off on exactly this condition:
//
//	if errors.Is(err, gwproto.ErrOverload) { backoff() }
var ErrOverload = errors.New("gateway: overloaded, request shed")

// Arg is one profile argument on the wire, a tagged union keyed by Kind.
// Exactly one payload field is meaningful per kind: Int for scalar/int,
// Double for scalar/double, Vector for vector/double, Matrix (+Rows/Cols)
// for matrix/double, Str for string, FileName+File for file. A Kind of ""
// is an untyped placeholder (an OUT argument the server will fill).
type Arg struct {
	Kind    string `json:"kind,omitempty"`    // "scalar"|"vector"|"matrix"|"string"|"file"
	Base    string `json:"base,omitempty"`    // "char"|"int"|"double"
	Persist string `json:"persist,omitempty"` // "volatile" (default)|"persistent"|"sticky"

	Int    *int64    `json:"int,omitempty"`
	Double *float64  `json:"double,omitempty"`
	Vector []float64 `json:"vector,omitempty"`
	Matrix []float64 `json:"matrix,omitempty"` // row major, Rows×Cols
	Rows   int       `json:"rows,omitempty"`
	Cols   int       `json:"cols,omitempty"`
	Str    *string   `json:"string,omitempty"`

	FileName string `json:"file_name,omitempty"`
	File     []byte `json:"file,omitempty"` // JSON base64

	// DataID refers to persistent data already resident on a server, in
	// place of an inline payload.
	DataID string `json:"data_id,omitempty"`
}

// SolveRequest is the body of POST /api/v1/solve: a full problem profile in
// the DIET index convention (args[0..last_in] IN, (last_in..last_inout]
// INOUT, (last_inout..last_out] OUT).
type SolveRequest struct {
	SchemaVersion int     `json:"schema_version"`
	Service       string  `json:"service"`
	WorkGFlops    float64 `json:"work_gflops,omitempty"`
	LastIn        int     `json:"last_in"`
	LastInOut     int     `json:"last_inout"`
	LastOut       int     `json:"last_out"`
	Args          []Arg   `json:"args,omitempty"`
}

// SolveReply is the success body of POST /api/v1/solve. Args is the full
// post-solve argument list (INOUT and OUT filled by the server).
type SolveReply struct {
	SchemaVersion int    `json:"schema_version"`
	Server        string `json:"server"`     // chosen SeD
	RequestID     string `json:"request_id"` // trace identity across the span bus
	LastIn        int    `json:"last_in"`
	LastInOut     int    `json:"last_inout"`
	LastOut       int    `json:"last_out"`
	Args          []Arg  `json:"args,omitempty"`
	Timing        Timing `json:"timing"`
}

// Timing decomposes one gateway call, the Figure-6 quantities in
// milliseconds plus the gateway's own admission wait.
type Timing struct {
	AdmissionMS float64 `json:"admission_ms"` // wait in the gateway queue
	FindingMS   float64 `json:"finding_ms"`   // MA round trip (0 for batch followers)
	QueueMS     float64 `json:"queue_ms"`     // SeD queue wait
	ComputeMS   float64 `json:"compute_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// ErrorReply is the body of any non-2xx API response. Overloaded marks a
// 503 that asks the client to back off: the gateway's admission control
// shed the request, or every server it reached refused it for want of room;
// either way the request did not run. A 503 without it means no server
// answered, and the request may be tried again later.
type ErrorReply struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	Overloaded    bool   `json:"overloaded,omitempty"`
}

// MAStatus is one upstream Master Agent's slice of the gateway status.
type MAStatus struct {
	Name      string `json:"name"`
	Submitted int64  `json:"submitted"` // finding-phase submissions routed here
	Failed    int64  `json:"failed"`    // submissions that errored
}

// StatusReply is the body of GET /api/v1/status.
type StatusReply struct {
	SchemaVersion int        `json:"schema_version"`
	MAs           []MAStatus `json:"mas"`
	QueueDepth    int        `json:"queue_depth"` // requests currently admitted or queued
	QueueCap      int        `json:"queue_cap"`
	Submitted     int64      `json:"submitted"` // calls admitted since start
	Shed          int64      `json:"shed"`      // calls rejected with ErrOverload
	Batched       int64      `json:"batched"`   // calls that rode another call's finding phase
	Batches       int64      `json:"batches"`   // finding phases shared by >1 call
	Solved        int64      `json:"solved"`
	Errors        int64      `json:"errors"`
}
