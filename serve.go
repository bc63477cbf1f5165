package dhl

import (
	"fmt"
	"time"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/ctlplane"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// This file is the System's operational surface: the single HTTP
// listener (metrics + debug + management API) and Control, the
// live-management surface the control plane drives. Control's methods
// mutate a running system; when called directly (not through /api/v1)
// the caller must be on the goroutine driving Sim().Run, exactly like
// SendPackets and every Queue: the rings behind IBQs and OBQs belong to
// that goroutine and carry no synchronisation.

// AccInfo is one hardware function table row: identity, placement and
// readiness.
type AccInfo = core.AccInfo

// ControlClient is a JSON-RPC 2.0 client for the management endpoint.
type ControlClient = ctlplane.Client

// ControlError is a server-reported management API failure; inspect
// Code against the ctlplane error-code constants.
type ControlError = ctlplane.Error

// DialControl builds a client for the management endpoint at addr
// (":9090", "box:9090", or a full URL). It does not touch the network;
// probe with Call("sys.ping", nil, nil).
func DialControl(addr string) *ControlClient { return ctlplane.Dial(addr) }

// ServeOption customizes Serve.
type ServeOption func(*serveConfig)

type serveConfig struct {
	callTimeout time.Duration
	onShutdown  func()
}

// WithCallTimeout bounds how long a management call waits for the event
// loop to pick the operation up (default 5s).
func WithCallTimeout(d time.Duration) ServeOption {
	return func(sc *serveConfig) { sc.callTimeout = d }
}

// WithShutdownHook installs the sys.shutdown handler: after the RPC is
// acknowledged, fn runs once in its own goroutine. Without it,
// sys.shutdown reports an error.
func WithShutdownHook(fn func()) ServeOption {
	return func(sc *serveConfig) { sc.onShutdown = fn }
}

// Serve starts the system's operational HTTP endpoint on addr (e.g.
// "127.0.0.1:0" to pick a free port) and returns the running exporter;
// query its Addr for the bound address and Close it when done. One
// listener carries the whole operator surface:
//
//	/metrics      Prometheus text exposition
//	/debug/vars   expvar JSON (registry snapshot under "dhl")
//	/debug/pprof  the standard pprof handlers
//	/api/v1       JSON-RPC 2.0 management API (WithControlPlane systems)
//
// Fails when telemetry is off. Management calls never lock against the
// data path: they are posted onto the event loop and execute between
// events on whatever goroutine drives Sim().Run.
func (s *System) Serve(addr string, opts ...ServeOption) (*MetricsExporter, error) {
	if s.tel == nil {
		return nil, fmt.Errorf("dhl: telemetry is not enabled (set SystemConfig.Telemetry or open WithControlPlane)")
	}
	var sc serveConfig
	for _, opt := range opts {
		opt(&sc)
	}
	e := telemetry.NewExporter(s.tel)
	if s.api {
		srv, err := ctlplane.New(ctlplane.Config{
			Backend:     s.Control(),
			Post:        s.sim.Post,
			CallTimeout: sc.callTimeout,
			OnShutdown:  sc.onShutdown,
		})
		if err != nil {
			return nil, err
		}
		e.Mount("/api/v1", srv.Handler())
		// A control-plane system is expected to be live (someone is driving
		// Sim().Run), so scrapes must not read pull gauges concurrently
		// with the loop: route /metrics and /debug/vars rendering through
		// the same post-and-wait dispatch the management API uses. Without
		// the control plane the exporter reads directly, which is safe for
		// the scrape-while-quiescent usage a metrics-only Serve has: the
		// pull gauges (dhl_mbuf_in_use, every dhl_ring_occupancy) read the
		// pool's and the rings' plain words, so such a scrape must come
		// while nothing drives Sim().Run.
		e.SetDispatch(func(fn func()) error {
			// Not `return srv.Dispatch(fn)`: a nil *Error in an error
			// interface is not nil.
			if derr := srv.Dispatch(fn); derr != nil {
				return derr
			}
			return nil
		})
	}
	if _, err := e.Start(addr); err != nil {
		return nil, err
	}
	return e, nil
}

// PlacementBoard is one board in a fleet placement snapshot: lifecycle
// state, free LUT/BRAM/region resources, migration counters, and every
// module endpoint routed to the board.
type PlacementBoard = placement.BoardInfo

// PlacementEndpoint is one routed module instance within a
// PlacementBoard: its acc_id, region, round-robin weight and flags.
type PlacementEndpoint = placement.EndpointInfo

// Control is the system's management surface: every core.Runtime method
// (module database, load/evict, fallbacks, batching knobs,
// health, the fleet verbs) promoted as it is, plus what the system
// itself owns — the flow-table registry, the autotuner, the boards and
// the telemetry snapshot. It is the control plane's backend: each
// /api/v1 verb is one call here.
type Control struct {
	*core.Runtime
	sys *System
	// flowSrcs are the flow tables registered for observability, in
	// registration order; FlowTables and stats.get report them.
	flowSrcs []flowtab.Source
	// tun is the adaptive batching controller, constructed by WithAutoTune
	// or lazily by the first AutoTuneEnable; nil until then.
	tun *tuner.Tuner
}

var _ ctlplane.Backend = (*Control)(nil)

// Control returns the system's management surface.
func (s *System) Control() *Control { return &s.control }

// Snapshot is System.Snapshot, for the control plane's telemetry.delta.
func (c *Control) Snapshot() *TelemetrySnapshot { return c.sys.Snapshot() }

// RegisterFlowTables attaches NF flow tables to the system's
// observability surface: their occupancy/eviction/rehash counters show
// up in FlowTables, in the stats.get management call, and (when
// telemetry is armed) as dhl_flowtab_* gauges on /metrics. Registering
// the same table name twice is refused.
func (c *Control) RegisterFlowTables(srcs ...FlowTableSource) error {
	for _, src := range srcs {
		for _, have := range c.flowSrcs {
			if have.Name() == src.Name() {
				return fmt.Errorf("dhl: flow table %q already registered", src.Name())
			}
		}
		c.flowSrcs = append(c.flowSrcs, src)
		if c.sys.tel != nil {
			flowtab.RegisterGauges(c.sys.tel, src)
		}
	}
	return nil
}

// UnregisterFlowTable detaches a registered flow table (and its gauges)
// by name, for NF teardown.
func (c *Control) UnregisterFlowTable(name string) error {
	for i, src := range c.flowSrcs {
		if src.Name() == name {
			c.flowSrcs = append(c.flowSrcs[:i], c.flowSrcs[i+1:]...)
			if c.sys.tel != nil {
				flowtab.UnregisterGauges(c.sys.tel, name)
			}
			return nil
		}
	}
	return fmt.Errorf("dhl: flow table %q is not registered", name)
}

// FlowTables snapshots every registered flow table's stats in
// registration order (never nil).
func (c *Control) FlowTables() []FlowTableInfo { return flowtab.Collect(c.flowSrcs) }

// ensureTuner lazily constructs the autotuner (first AutoTuneEnable on a
// system opened without WithAutoTune). Requires telemetry: the
// controller's signals are the span ring and the IBQ pressure gauges.
func (c *Control) ensureTuner() error {
	if c.tun != nil {
		return nil
	}
	if c.sys.tel == nil {
		return fmt.Errorf("dhl: autotuner requires telemetry (open with WithAutoTune, WithControlPlane, or SystemConfig.Telemetry)")
	}
	t, err := tuner.New(c.sys.sim, c.Runtime, c.sys.tel)
	if err != nil {
		return err
	}
	c.tun = t
	return nil
}

// AutoTuneEnable arms the adaptive batching controller (constructing it
// on first use). Idempotent while enabled; the control plane's
// `tune.auto` call routes here through the event loop.
func (c *Control) AutoTuneEnable() error {
	if err := c.ensureTuner(); err != nil {
		return err
	}
	return c.tun.Enable()
}

// AutoTuneDisable stops the controller and rolls back its interventions:
// per-accelerator overrides clear to the global configuration and poll
// bursts return to their enable-time baselines. Idempotent; a no-op on a
// system whose tuner was never constructed.
func (c *Control) AutoTuneDisable() error {
	if c.tun == nil {
		return nil
	}
	return c.tun.Disable()
}

// AutoTuneStatus reports the controller's state — windows closed,
// grow/shrink decisions applied, current per-accelerator batch/flush
// targets and per-node bursts. A zero Status when the tuner was never
// constructed.
func (c *Control) AutoTuneStatus() TunerStatus {
	if c.tun == nil {
		return TunerStatus{}
	}
	return c.tun.Status()
}
