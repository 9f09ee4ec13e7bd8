package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/diet"
	"repro/internal/gwproto"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// This file is the HTTP face of the gateway: the /api/v1 JSON endpoints
// speaking the gwproto contract, mounted over the standard observability
// mux (/metrics, /statusz, /debug/pprof).

// writeError sends a gwproto.ErrorReply with the given status.
func writeError(w http.ResponseWriter, status int, overloaded bool, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(gwproto.ErrorReply{
		SchemaVersion: gwproto.Version,
		Error:         fmt.Sprintf(format, args...),
		Overloaded:    overloaded,
	})
}

// handleSolve is POST /api/v1/solve: decode the wire profile, run it
// through the gateway, return the solved arguments and timing. Schema
// mismatches are 400. A 503 says try again later: overloaded when the
// admission queue shed the request or the platform's servers refused it for
// want of room (rpc.ErrOverloaded), not overloaded when no server answered
// (rpc.ErrUnavailable). Every other upstream failure, a solve's own
// included, is 502.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, false, "POST only")
		return
	}
	var req gwproto.SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, false, "decoding request: %v", err)
		return
	}
	if req.SchemaVersion != gwproto.Version {
		writeError(w, http.StatusBadRequest, false,
			"gateway speaks schema v%d, request is v%d", gwproto.Version, req.SchemaVersion)
		return
	}
	p, err := diet.ProfileFromWire(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, false, "invalid profile: %v", err)
		return
	}
	t0 := time.Now()
	info, admission, err := g.Solve(p)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverload), errors.Is(err, rpc.ErrOverloaded):
			writeError(w, http.StatusServiceUnavailable, true, "%v", err)
		case errors.Is(err, rpc.ErrUnavailable):
			writeError(w, http.StatusServiceUnavailable, false, "%v", err)
		default:
			writeError(w, http.StatusBadGateway, false, "%v", err)
		}
		return
	}
	args, err := p.WireArgs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, false, "encoding solved profile: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(gwproto.SolveReply{
		SchemaVersion: gwproto.Version,
		Server:        info.Server,
		RequestID:     info.RequestID,
		LastIn:        p.LastIn,
		LastInOut:     p.LastInOut,
		LastOut:       p.LastOut,
		Args:          args,
		Timing: gwproto.Timing{
			AdmissionMS: float64(admission) / float64(time.Millisecond),
			FindingMS:   float64(info.Finding) / float64(time.Millisecond),
			QueueMS:     float64(info.QueueWait) / float64(time.Millisecond),
			ComputeMS:   float64(info.Compute) / float64(time.Millisecond),
			TotalMS:     float64(time.Since(t0)) / float64(time.Millisecond),
		},
	})
}

// handleStatus is GET /api/v1/status.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.Status())
}

// statusz renders the human-readable status page body.
func (g *Gateway) statusz(w http.ResponseWriter) {
	st := g.Status()
	fmt.Fprintf(w, "dietgw: %d/%d admitted, %d submitted, %d shed, %d solved, %d errors\n",
		st.QueueDepth, st.QueueCap, st.Submitted, st.Shed, st.Solved, st.Errors)
	fmt.Fprintf(w, "batching: %d calls rode %d shared finding phases\n", st.Batched, st.Batches)
	for _, ma := range st.MAs {
		fmt.Fprintf(w, "  MA %s: %d submissions, %d failed\n", ma.Name, ma.Submitted, ma.Failed)
	}
}

// Handler returns the gateway's full HTTP mux: the /api/v1 endpoints over
// the standard observability endpoints.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/solve", g.handleSolve)
	mux.HandleFunc("/api/v1/status", g.handleStatus)
	mux.Handle("/", metrics.Handler(g.cfg.Metrics, g.statusz))
	return mux
}

// Serve exposes Handler on addr (":0" for ephemeral) in the background and
// returns the bound address and a shutdown func.
func (g *Gateway) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("gateway: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: g.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
