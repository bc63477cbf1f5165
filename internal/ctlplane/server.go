// Package ctlplane is the live operator control plane: a hand-rolled
// JSON-RPC 2.0 management API served over HTTP, driving a *running* DHL
// system. It is the piece that turns Open()-time wiring into runtime
// operations — NF registration, accelerator module load/evict/configure,
// software-fallback flips, watchdog/batch knob tuning, health and stats
// queries, and a long-poll telemetry delta stream.
//
// # Why JSON-RPC over the telemetry mux
//
// The repo already serves one operational HTTP surface (Prometheus text,
// expvar JSON, pprof) from a single mux; mounting the management API on
// the same mux means one listener, one port and one Serve call for the
// whole operator story (ndn-dpdk's gqlserver plays the same role with
// GraphQL). JSON-RPC 2.0 is small enough to hand-roll on the stdlib —
// no schema compiler, no dependency — while still giving structured
// errors, batch-free request framing and forward-compatible method
// namespacing ("nf.*", "acc.*", "tune.*"...). The endpoint is versioned
// by path (/api/v1): breaking changes to a method's params or result
// move to /api/v2, additive changes (new methods, new optional fields)
// do not bump the version.
//
// # Concurrency model
//
// The simulation is single-threaded by design; HTTP handlers are not.
// Every mutating or state-reading method body is posted onto the event
// loop through eventsim.Sim.Post and executed at the next safe point of
// the driving goroutine's Run call, serialized against the data-path
// actors at event granularity. Control operations therefore never lock
// against the data path, and the hot path stays allocation-free with the
// control plane serving — management is cold-path by construction. A
// call against a system nobody is pumping fails with CodeLoopIdle after
// Config.CallTimeout rather than hanging.
package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// JSON-RPC 2.0 error codes (spec-defined range plus the server-defined
// -32000.. block).
const (
	// CodeParse: the request body was not valid JSON.
	CodeParse = -32700
	// CodeInvalidRequest: valid JSON but not a JSON-RPC 2.0 request.
	CodeInvalidRequest = -32600
	// CodeMethodNotFound: the method is not in the table.
	CodeMethodNotFound = -32601
	// CodeInvalidParams: the params did not decode or failed validation.
	CodeInvalidParams = -32602
	// CodeLoopIdle: the operation was posted but no goroutine drove the
	// simulation within CallTimeout — the system is not being pumped.
	CodeLoopIdle = -32000
	// CodeOpFailed: the runtime rejected the operation (unknown acc_id,
	// capacity exhausted, invalid knob value, ...). The message carries
	// the runtime error text.
	CodeOpFailed = -32001
)

// Backend is the management surface the control plane drives. Methods
// are invoked only from the simulation's event-loop goroutine (the
// server posts them through Config.Post); implementations need no
// internal locking. dhl.Control implements it: core.Runtime's methods
// plus the flow-table registry, the telemetry snapshot and the tuner the
// system owns.
type Backend interface {
	Register(name string, node int) (core.NFID, error)
	Unregister(id core.NFID) error
	LoadPR(hfName string, node int) (core.AccID, error)
	Evict(acc core.AccID) error
	AccConfigure(acc core.AccID, params []byte) error
	InstallFallback(hfName string, node int) error
	ClearFallback(hfName string, node int) error
	SetBatchBytes(bytes int) error
	SetWatchdogTimeout(d eventsim.Time) error
	BatchBytes() int
	WatchdogTimeout() eventsim.Time
	AccIDs() []core.AccID
	AccInfo(acc core.AccID) (core.AccInfo, error)
	AccHealth(acc core.AccID) (core.HealthReport, error)
	Stats(node int) (core.TransferStats, error)
	Nodes() int
	HFTable() []string
	ModuleDB() []string
	FlowTables() []flowtab.Info
	Snapshot() *telemetry.Snapshot

	// Fleet surface: board-level placement, replication and migration.
	PlacementTable() []placement.BoardInfo
	Migrate(acc core.AccID, board int) (int, error)
	Replicate(acc core.AccID, board int) (int, error)
	Rebalance() (int, error)
	DrainBoard(board int) (int, error)
	UndrainBoard(board int) error
	OfflineBoard(board int) (int, error)

	// Autotuner surface: the adaptive batching controller (tune.auto).
	AutoTuneEnable() error
	AutoTuneDisable() error
	AutoTuneStatus() tuner.Status
}

// Config parameterizes New.
type Config struct {
	// Backend is the system under management. Required.
	Backend Backend
	// Post schedules a function onto the system's event loop from any
	// goroutine (eventsim.Sim.Post). Required.
	Post func(fn func())
	// CallTimeout bounds how long a call waits for the event loop to pick
	// the operation up. Zero selects 5s.
	CallTimeout time.Duration
	// OnShutdown, when set, is invoked (once, in its own goroutine) after
	// a sys.shutdown call has been acknowledged; the serving process uses
	// it to stop its pump loop and close the listener. When nil,
	// sys.shutdown reports an error.
	OnShutdown func()
}

// Server handles JSON-RPC 2.0 management requests. Mount Handler on the
// operational mux at /api/v1.
type Server struct {
	cfg Config

	shutdownOnce sync.Once

	// Telemetry long-poll stream baselines, keyed by client-chosen stream
	// name; see telemetryDelta in methods.go.
	streamMu sync.Mutex
	streams  map[string]*streamState
}

type streamState struct {
	prev     *telemetry.Snapshot
	lastUsed time.Time
}

// New builds a Server. Backend and Post are required.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("ctlplane: Config.Backend is required")
	}
	if cfg.Post == nil {
		return nil, fmt.Errorf("ctlplane: Config.Post is required")
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	return &Server{cfg: cfg, streams: make(map[string]*streamState)}, nil
}

// rpcRequest is the JSON-RPC 2.0 request envelope.
type rpcRequest struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
}

// Error is a JSON-RPC 2.0 error object; Client.Call returns it for
// server-reported failures.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
	Data    any    `json:"data,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("ctlplane: rpc error %d: %s", e.Code, e.Message)
}

// rpcResponse is the JSON-RPC 2.0 response envelope.
type rpcResponse struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Result  any             `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

// Handler returns the HTTP handler for the management endpoint. POST
// carries a single JSON-RPC 2.0 request; GET returns a JSON directory of
// the available methods so operators can discover the surface with a
// plain browser.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(s.serveHTTP)
}

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.serveDirectory(w)
	case http.MethodPost:
		s.serveCall(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) serveDirectory(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	dir := struct {
		Service string   `json:"service"`
		Proto   string   `json:"protocol"`
		Methods []string `json:"methods"`
	}{Service: "dhl control plane", Proto: "JSON-RPC 2.0 over POST"}
	for _, v := range verbs {
		dir.Methods = append(dir.Methods, v.Name+" — "+v.Doc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection is the only place this error could go.
	_ = enc.Encode(dir)
}

func (s *Server) serveCall(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.writeError(w, nil, &Error{Code: CodeParse, Message: "reading request body: " + err.Error()})
		return
	}
	var req rpcRequest
	if uerr := json.Unmarshal(body, &req); uerr != nil {
		if len(body) > 0 && body[0] == '[' {
			s.writeError(w, nil, &Error{Code: CodeInvalidRequest, Message: "batch requests are not supported; send one request object per call"})
			return
		}
		s.writeError(w, nil, &Error{Code: CodeParse, Message: uerr.Error()})
		return
	}
	if req.JSONRPC != "2.0" {
		s.writeError(w, req.ID, &Error{Code: CodeInvalidRequest, Message: `jsonrpc must be "2.0"`})
		return
	}
	if req.Method == "" {
		s.writeError(w, req.ID, &Error{Code: CodeInvalidRequest, Message: "method is required"})
		return
	}
	v, ok := Lookup(req.Method)
	if !ok {
		s.writeError(w, req.ID, &Error{Code: CodeMethodNotFound, Message: fmt.Sprintf("unknown method %q", req.Method)})
		return
	}
	result, rerr := v.handle(s, req.Params)
	if len(req.ID) == 0 || string(req.ID) == "null" {
		// Notification: executed, not answered.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if rerr != nil {
		s.writeError(w, req.ID, rerr)
		return
	}
	s.writeResult(w, req.ID, result)
}

func (s *Server) writeResult(w http.ResponseWriter, id json.RawMessage, result any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	// The connection is the only place this error could go.
	_ = json.NewEncoder(w).Encode(rpcResponse{JSONRPC: "2.0", ID: id, Result: result})
}

func (s *Server) writeError(w http.ResponseWriter, id json.RawMessage, rerr *Error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	// JSON-RPC errors ride on HTTP 200: the transport worked, the call
	// failed. The connection is the only place an encode error could go.
	_ = json.NewEncoder(w).Encode(rpcResponse{JSONRPC: "2.0", ID: id, Error: rerr})
}

// Dispatch posts fn onto the event loop and waits for it to run. It
// fails with CodeLoopIdle when nothing drives the simulation within
// CallTimeout; the posted closure may still run later, which is safe —
// its captured results are simply never read. Every verb goes through
// it, and so does the /metrics scrape of the system that serves them.
func (s *Server) Dispatch(fn func()) *Error {
	done := make(chan struct{})
	s.cfg.Post(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return nil
	case <-time.After(s.cfg.CallTimeout):
		return &Error{Code: CodeLoopIdle, Message: fmt.Sprintf(
			"event loop did not pick the operation up within %v; is anything advancing virtual time?", s.cfg.CallTimeout)}
	}
}

// opError wraps a runtime rejection into the CodeOpFailed space; a verb
// that refuses with an *Error of its own keeps its code.
func opError(err error) *Error {
	var rerr *Error
	if errors.As(err, &rerr) {
		return rerr
	}
	return &Error{Code: CodeOpFailed, Message: err.Error()}
}
