package diet

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/logsvc"
	"repro/internal/naming"
	"repro/internal/rpc"
)

// ClientConfig is the parsed client configuration file. The file format is
// the DIET cfg style: one "key = value" per line, '#' comments. Recognised
// keys: namingAddr (required), MAName (default "MA1"), and traceLevel,
// which DIET client files carry and this client accepts and ignores.
type ClientConfig struct {
	Naming string
	MAName string
	// Events is an optional monitoring sink; set programmatically, not from
	// the configuration file. The client publishes the submit and complete
	// spans of every call through it.
	Events EventSink
}

// ParseClientConfig reads a DIET-style client configuration file.
func ParseClientConfig(path string) (ClientConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return ClientConfig{}, err
	}
	defer f.Close()
	cfg := ClientConfig{MAName: "MA1"}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return ClientConfig{}, fmt.Errorf("diet: %s:%d: expected key = value, got %q", path, lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		switch key {
		case "namingAddr":
			cfg.Naming = val
		case "MAName":
			cfg.MAName = val
		case "traceLevel":
		default:
			return ClientConfig{}, fmt.Errorf("diet: %s:%d: unknown key %q", path, lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return ClientConfig{}, err
	}
	if cfg.Naming == "" {
		return ClientConfig{}, fmt.Errorf("diet: %s: namingAddr is required", path)
	}
	return cfg, nil
}

// CallInfo reports the timing decomposition of one completed call, the
// quantities of the paper's Figure 6: finding time (MA round trip) and
// latency (everything between submission and the start of computation:
// transfer, queue wait, service initialisation).
type CallInfo struct {
	Seq       int
	RequestID string        // trace identity shared by every span of this call
	Server    string        // chosen SeD
	Finding   time.Duration // time to get the ranked server list from the MA
	QueueWait time.Duration // time the request waited in the SeD queue
	Compute   time.Duration // solve execution time
	Latency   time.Duration // total − finding − compute: transfer + queue + init
	Total     time.Duration
}

// Client is the application's handle on a DIET platform (diet_initialize /
// diet_call / diet_finalize). It is safe for concurrent Call invocations.
type Client struct {
	cfg    ClientConfig
	maAddr string
	id     string // session identity prefixing every request ID
	seq    atomic.Int64
	trace  tracer
}

// clientSessions distinguishes sessions within one process; the random part
// distinguishes processes sharing a logsvc bus.
var clientSessions atomic.Int64

// newClientID mints a session identity like "c3-9f21".
func newClientID() string {
	return fmt.Sprintf("c%d-%04x", clientSessions.Add(1), rand.Uint32()&0xffff)
}

// requestID names one call of this session, e.g. "c3-9f21-17".
func (c *Client) requestID(seq int) string {
	return fmt.Sprintf("%s-%d", c.id, seq)
}

// InitializeConfig opens a DIET session from an in-memory configuration.
func InitializeConfig(cfg ClientConfig) (*Client, error) {
	if cfg.MAName == "" {
		cfg.MAName = "MA1"
	}
	nc := &naming.Client{Addr: cfg.Naming}
	entry, err := nc.Resolve(cfg.MAName)
	if err != nil {
		return nil, fmt.Errorf("diet: resolving master agent %q: %w", cfg.MAName, err)
	}
	id := newClientID()
	return &Client{cfg: cfg, maAddr: entry.Addr, id: id, trace: tracer{sink: cfg.Events, name: "client:" + id}}, nil
}

// Finalize closes the session. Like diet_finalize it does not invalidate
// data the application still holds; it only drops the platform handle.
func (c *Client) Finalize() {}

// FindServers asks the Master Agent for the ranked server list and estimate
// vectors for a service without dispatching a solve — the "finding" phase of
// Figure 6 on its own. The workflow runner prices DAG nodes from the
// returned estimates (each carries the SeD's CoRI forecast extension)
// before launching any solve.
func (c *Client) FindServers(service string, workGFlops float64) (*SubmitReply, time.Duration, error) {
	seq := int(c.seq.Add(1))
	return c.submit(service, workGFlops, seq, c.requestID(seq), nil)
}

// submit is the finding phase: one Submit round trip to the Master Agent.
func (c *Client) submit(service string, workGFlops float64, seq int, requestID string, dataIDs []string) (*SubmitReply, time.Duration, error) {
	t0 := time.Now()
	var reply SubmitReply
	err := rpc.Call(c.maAddr, "agent:"+c.cfg.MAName, "Submit",
		&SubmitRequest{Service: service, WorkGFlops: workGFlops, Seq: seq, RequestID: requestID, DataIDs: dataIDs}, &reply)
	if err != nil {
		return nil, 0, fmt.Errorf("diet: submission of %q failed: %w", service, err)
	}
	found := time.Now()
	if c.trace.on() {
		c.trace.span(requestID, logsvc.KindSubmit, service, t0, found,
			fmt.Sprintf("%d servers ranked", len(reply.Servers)))
	}
	return &reply, found.Sub(t0), nil
}

// inputDataIDs lists the persistent IN/INOUT references the profile carries
// by DataID only, with no bytes attached — the inputs the chosen server will
// have to fetch, which data-aware scheduling prices per candidate. A profile
// without such references returns nil and the submission is wire-identical
// to the data-blind one.
func inputDataIDs(p *Profile) []string {
	var ids []string
	for i := range p.Args {
		a := &p.Args[i]
		if p.Direction(i) == Out || a.Persist == Volatile {
			continue
		}
		if a.DataID != "" && len(a.Data) == 0 {
			ids = append(ids, a.DataID)
		}
	}
	return ids
}

// CallOption tweaks a Call.
type CallOption func(*callOptions)

type callOptions struct {
	workGFlops float64
	servers    *SubmitReply
	rotate     int
}

// WithWork passes a work estimate (GFlops) to the scheduler, used by the
// power-aware plug-in policy.
func WithWork(gflops float64) CallOption {
	return func(o *callOptions) { o.workGFlops = gflops }
}

// WithServers skips the finding phase and reuses an already-ranked server
// list, starting the failover walk rotate positions in (wrapping). The
// gateway's submission batching uses it: one batch leader pays the MA round
// trip, the followers ride its reply with rotated starting servers so a
// batch does not pile onto one SeD. A one-server list is a bound call, the
// grpc_function_handle_init of GridRPC: it skips the MA, so its trace has no
// submit or schedule span.
func WithServers(reply *SubmitReply, rotate int) CallOption {
	return func(o *callOptions) { o.servers, o.rotate = reply, rotate }
}

// Call performs a complete GridRPC call: find a server through the MA, ship
// the profile to the chosen SeD, execute, and bring the INOUT/OUT arguments
// back into p. On failure of the best server it falls over to the next
// servers in the ranked list, unless the solve itself failed there (not
// rpc.Retryable), which returns at once. Options select the variants —
// WithServers to reuse a ranked list, WithWork to hint the scheduler — all
// sharing this one retry and trace path.
func (c *Client) Call(p *Profile, opts ...CallOption) (*CallInfo, error) {
	var o callOptions
	for _, opt := range opts {
		opt(&o)
	}
	// The work hint rides the profile to the SeD for the CoRI monitor. Set
	// unconditionally: a call without WithWork must ship 0 (unknown), not a
	// stale hint from an earlier call reusing this profile, or the monitor
	// would pair this solve's duration with the wrong work size.
	p.WorkGFlops = o.workGFlops
	seq := int(c.seq.Add(1))
	requestID := c.requestID(seq)
	p.RequestID = requestID
	t0 := time.Now()
	reply := o.servers
	var finding time.Duration
	if reply == nil {
		var err error
		reply, finding, err = c.submit(p.Service, o.workGFlops, seq, requestID, inputDataIDs(p))
		if err != nil {
			return nil, err
		}
	}
	n := len(reply.Servers)
	if n == 0 {
		return nil, fmt.Errorf("diet: no servers offered for %q", p.Service)
	}
	var lastErr error
	for i := 0; i < n; i++ {
		srv := reply.Servers[(i+o.rotate)%n]
		attempt := time.Now()
		info, err := c.solveOn(srv, p, seq, t0, finding)
		if err != nil {
			if !rpc.Retryable(err) {
				// The solve itself failed: another server would fail it
				// the same way, so it runs once.
				return nil, fmt.Errorf("diet: %q failed on %s: %w", p.Service, srv.Name, err)
			}
			lastErr = err
			// The kill-and-requeue of the live stack: the request's work on
			// the lost server is abandoned and resubmitted to the next ranked
			// server; the requeue span brackets the failed attempt.
			if i+1 < n {
				next := reply.Servers[(i+1+o.rotate)%n]
				c.trace.span(requestID, logsvc.KindRequeue, p.Service, attempt, time.Now(),
					srv.Name, " failed, retrying on ", next.Name)
			}
			continue // fault tolerance: try the next ranked server
		}
		return info, nil
	}
	return nil, fmt.Errorf("diet: all %d servers failed for %q: %w", n, p.Service, lastErr)
}

// solveOn is the solve leg of every call: ship p to one
// server, merge the solved INOUT/OUT arguments back into p, publish the
// complete span and report the call. The IN arguments stay the caller's own —
// the server does not send them back, so an input passed by DataID is still a
// reference afterwards. A reply that does not have exactly p's INOUT/OUT
// arguments fails the attempt and leaves p untouched. t0 is when the call
// began, finding what the MA round trip took of it (0 with WithServers).
func (c *Client) solveOn(srv ServerRef, p *Profile, seq int, t0 time.Time, finding time.Duration) (*CallInfo, error) {
	var solved SolveReply
	if err := rpc.Call(srv.Addr, "sed:"+srv.Name, "Solve", p, &solved); err != nil {
		return nil, err
	}
	firstOut := p.LastIn + 1
	if firstOut < 0 || firstOut > len(p.Args) || len(solved.Args) != len(p.Args)-firstOut {
		return nil, fmt.Errorf("diet: %s answered %q with %d INOUT/OUT arguments, profile has %d arguments after LastIn=%d",
			srv.Name, p.Service, len(solved.Args), len(p.Args), p.LastIn)
	}
	copy(p.Args[firstOut:], solved.Args)
	done := time.Now()
	total := done.Sub(t0)
	compute := time.Duration(solved.Timing.ComputeMS * float64(time.Millisecond))
	c.trace.span(p.RequestID, logsvc.KindComplete, p.Service, t0, done, "server ", srv.Name)
	info := CallInfo{
		Seq:       seq,
		RequestID: p.RequestID,
		Server:    srv.Name,
		Finding:   finding,
		QueueWait: time.Duration(solved.Timing.QueueWaitMS * float64(time.Millisecond)),
		Compute:   compute,
		Latency:   total - finding - compute,
		Total:     total,
	}
	return &info, nil
}

// AsyncCall is a handle on an in-flight asynchronous call.
type AsyncCall struct {
	done chan struct{}
	info *CallInfo
	err  error
}

// Wait blocks until the call completes and returns its outcome.
func (a *AsyncCall) Wait() (*CallInfo, error) {
	<-a.done
	return a.info, a.err
}

// CallAsync launches Call in the background, the diet_call_async of the C
// API. The profile must not be touched until Wait returns.
func (c *Client) CallAsync(p *Profile, opts ...CallOption) *AsyncCall {
	a := &AsyncCall{done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.info, a.err = c.Call(p, opts...)
	}()
	return a
}

// WaitAll blocks until all the given async calls complete and returns the
// first error encountered (grpc_wait_all).
func WaitAll(calls []*AsyncCall) error {
	var first error
	for _, a := range calls {
		if _, err := a.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
