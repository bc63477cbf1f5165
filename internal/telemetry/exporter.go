package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// ErrNotServing is returned by Close when the exporter never started.
var ErrNotServing = errors.New("telemetry: exporter is not serving")

// Exporter serves a Registry over HTTP:
//
//	/metrics      Prometheus text exposition format
//	/debug/vars   expvar-style JSON: the process's expvar variables plus
//	              the registry Snapshot under the "dhl" key
//	/debug/pprof  the standard net/http/pprof handlers
//
// Construct with NewExporter, then either Start (background goroutine on
// a TCP address) or Serve (caller-owned listener). Close shuts the
// server down; dropped Serve/Close errors are flagged by dhl-lint's
// checkederr analyzer, same as the rest of the DHL API surface.
type Exporter struct {
	reg *Registry

	mu       sync.Mutex
	srv      *http.Server
	ln       net.Listener
	mounts   []mount
	dispatch func(func()) error
}

type mount struct {
	pattern string
	h       http.Handler
}

// NewExporter builds an Exporter for reg without binding any socket.
func NewExporter(reg *Registry) *Exporter {
	return &Exporter{reg: reg}
}

// Mount registers an additional handler on the exporter's mux — this is
// how the control plane's /api/v1 endpoint shares the operational
// listener with /metrics and /debug/*. Call before Handler/Serve/Start;
// later mounts do not reach an already-running server.
func (e *Exporter) Mount(pattern string, h http.Handler) {
	e.mu.Lock()
	e.mounts = append(e.mounts, mount{pattern, h})
	e.mu.Unlock()
}

// SetDispatch routes registry reads that evaluate pull gauges (which
// touch simulation-owned state) through fn — typically a post onto the
// event loop — so /metrics and /debug/vars stay safe to scrape while
// the simulation is running. fn returns an error when the loop cannot
// pick the read up; the scrape then answers 503 instead of hanging.
// Without a dispatcher the handlers read the registry directly, which
// is only safe while the simulation is quiescent.
func (e *Exporter) SetDispatch(fn func(func()) error) {
	e.mu.Lock()
	e.dispatch = fn
	e.mu.Unlock()
}

// dispatcher reports the configured dispatch hook, nil when unset.
func (e *Exporter) dispatcher() func(func()) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dispatch
}

// buildHandler assembles the mux from the given mounts; the caller holds
// e.mu and passes a copy of e.mounts.
func (e *Exporter) buildHandler(mounts []mount) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.metricsHandler)
	mux.HandleFunc("/debug/vars", e.varsHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range mounts {
		mux.Handle(m.pattern, m.h)
	}
	return mux
}

// How long the listener waits for a client to finish sending a request: its
// header, and all of it (the largest body is a JSON-RPC call of a few
// hundred bytes). Without them one client that opens a connection and never
// finishes its request line holds a goroutine and a descriptor for the life
// of the process. Both end when the request has been read, so a handler may
// run as long as it likes — and there is no write timeout, because
// /debug/pprof/profile legitimately writes for 30 s and telemetry.delta
// long-polls for 60. With no IdleTimeout set, readTimeout is also how long
// net/http keeps an idle keep-alive connection.
const (
	readHeaderTimeout = 3 * time.Second
	readTimeout       = 10 * time.Second
)

// server returns the exporter's http.Server, built on first use. Callers
// hold e.mu.
func (e *Exporter) server() *http.Server {
	if e.srv == nil {
		e.srv = &http.Server{
			Handler:           e.buildHandler(append([]mount(nil), e.mounts...)),
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
		}
	}
	return e.srv
}

// Serve accepts connections on ln until Close (which returns
// http.ErrServerClosed here) or a listener error. It blocks; use Start
// for the common background case.
func (e *Exporter) Serve(ln net.Listener) error {
	e.mu.Lock()
	srv := e.server()
	e.ln = ln
	e.mu.Unlock()
	return srv.Serve(ln)
}

// Start binds addr (e.g. "127.0.0.1:9090"; ":0" picks a free port) and
// serves in a background goroutine, returning the bound address.
func (e *Exporter) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// Register the listener here, not in the goroutine, so Addr and Close
	// see the server as soon as Start returns.
	e.mu.Lock()
	e.server()
	e.ln = ln
	e.mu.Unlock()
	go func() {
		if serr := e.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			// The listener died under us; nothing to do but stop serving.
			_ = e.Close()
		}
	}()
	return ln.Addr().String(), nil
}

// Addr reports the listener's address, empty before Serve/Start.
func (e *Exporter) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// Close shuts the HTTP server down, closing the listener and any active
// connections. Returns ErrNotServing if the exporter never started.
func (e *Exporter) Close() error {
	e.mu.Lock()
	srv := e.srv
	e.srv, e.ln = nil, nil
	e.mu.Unlock()
	if srv == nil {
		return ErrNotServing
	}
	return srv.Close()
}

// metricsHandler serves the Prometheus text format. With a dispatcher
// set, the whole exposition renders on the event loop into a buffer
// (pull gauges read simulation-owned state); the bytes on the wire are
// identical either way.
func (e *Exporter) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	disp := e.dispatcher()
	if disp == nil {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The connection is the only place this error could go.
		_ = e.reg.WritePrometheus(w)
		return
	}
	buf := new(bytes.Buffer)
	if err := disp(func() { _ = e.reg.WritePrometheus(buf) }); err != nil {
		// Do not touch buf after a dispatch timeout: the posted render may
		// still execute later, on the loop.
		http.Error(w, "telemetry: event loop unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// varsHandler serves expvar-style JSON: every expvar variable the
// process has published (cmdline, memstats, ...) plus the registry
// snapshot under "dhl". The registry is merged in here rather than via
// expvar.Publish so multiple Systems in one process never collide on the
// global expvar namespace.
func (e *Exporter) varsHandler(w http.ResponseWriter, _ *http.Request) {
	// Take the registry snapshot before streaming anything, through the
	// dispatcher when one is set (same reasoning as metricsHandler).
	var reg *Snapshot
	if disp := e.dispatcher(); disp != nil {
		if err := disp(func() { reg = e.reg.Snapshot() }); err != nil {
			http.Error(w, "telemetry: event loop unavailable: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
	} else {
		reg = e.reg.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	if !first {
		fmt.Fprintf(w, ",\n")
	}
	snap, err := json.Marshal(reg)
	if err != nil {
		// A Snapshot is plain data; Marshal cannot fail on it, but keep
		// the output well-formed regardless.
		snap = []byte("null")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "dhl", snap)
}
