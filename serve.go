package dhl

import (
	"fmt"
	"time"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/ctlplane"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// This file is the System's operational surface: the single HTTP
// listener (metrics + debug + management API) and the live-management
// methods the control plane drives. The management methods mutate a
// running system; when called directly (not through /api/v1) the caller
// must be on the goroutine driving Sim().Run, exactly like SendPackets.

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
	if s.ctl {
		srv, err := ctlplane.New(ctlplane.Config{
			Backend:     s,
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
		// the scrape-while-quiescent usage a metrics-only Serve has.
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

// The System is the control plane's backend.
var _ ctlplane.Backend = (*System)(nil)

// Evict unloads an accelerator and frees its PR region, the inverse of
// LoadPR on a running system: staged packets drop DropNoRoute (the
// conservation ledger keeps balancing), in-flight batches complete and
// fail cleanly, later traffic for the acc_id drops as unroutable. A
// region mid-reconfiguration refuses with an ErrAccReloading-wrapped
// error; retry once it settles.
func (s *System) Evict(acc AccID) error { return s.rt.EvictPR(acc) }

// InstallFallback registers the module database's functional engine as
// the software fallback for a loaded hardware function — the software-
// equivalent path of RegisterFallback without writing a factory. While
// the accelerator is quarantined its traffic runs through the fallback
// on the TX core (delivered StatusFallback) instead of passing through
// unprocessed.
func (s *System) InstallFallback(hfName string, node int) error {
	spec, ok := s.rt.ModuleSpecFor(hfName)
	if !ok {
		return fmt.Errorf("dhl: no module %q in the database to use as a software fallback", hfName)
	}
	return s.rt.RegisterFallback(hfName, node, spec.New)
}

// ClearFallback removes an installed software fallback. Traffic for a
// healthy accelerator is unaffected; a quarantined one delivers
// unprocessed from the next flush on.
func (s *System) ClearFallback(hfName string, node int) error {
	return s.rt.ClearFallback(hfName, node)
}

// SetBatchBytes retargets the Packer's maximum transfer batch size live.
// Bounded below by the runtime's minimum and above by the batch arena's
// segment capacity fixed at Open (2x the opening BatchBytes) — the
// bound is what keeps the hot path at zero allocations.
func (s *System) SetBatchBytes(bytes int) error { return s.rt.SetBatchBytes(bytes) }

// SetWatchdogTimeout retunes (or arms, or with 0 disarms) the per-batch
// watchdog live. Microseconds, matching SystemConfig.WatchdogTimeoutUs.
func (s *System) SetWatchdogTimeout(us int) error {
	return s.rt.SetWatchdogTimeout(eventsim.Time(us) * eventsim.Microsecond)
}

// BatchBytes reports the current maximum transfer batch size.
func (s *System) BatchBytes() int { return s.rt.BatchBytes() }

// WatchdogTimeoutUs reports the current per-batch watchdog deadline in
// microseconds, zero when disarmed.
func (s *System) WatchdogTimeoutUs() int {
	return int(s.rt.WatchdogTimeout() / eventsim.Microsecond)
}

// AccIDs lists the loaded accelerator instances in acc_id order.
func (s *System) AccIDs() []AccID { return s.rt.AccIDs() }

// AccInfo reports one accelerator's hardware function table row.
func (s *System) AccInfo(acc AccID) (AccInfo, error) { return s.rt.AccInfoFor(acc) }

// Nodes reports the system's NUMA node count.
func (s *System) Nodes() int { return s.rt.Nodes() }

// ModuleDB lists the accelerator module database's hardware function
// names.
func (s *System) ModuleDB() []string { return s.rt.ModuleDB() }

// PlacementBoard is one board in a fleet placement snapshot: lifecycle
// state, free LUT/BRAM/region resources, migration counters, and every
// module endpoint routed to the board.
type PlacementBoard = placement.BoardInfo

// PlacementEndpoint is one routed module instance within a
// PlacementBoard: its acc_id, region, round-robin weight and flags.
type PlacementEndpoint = placement.EndpointInfo

// PlacementTable snapshots the fleet: every board's state, remaining
// resources and routed endpoints, in board order.
func (s *System) PlacementTable() []PlacementBoard { return s.rt.Placement().Snapshot() }

// Migrate live-migrates an accelerator's primary instance to another
// board: PR load on the target, configuration replay, then an atomic
// hardware-function-table cutover. Held traffic waits (exactly like an
// initial load); nothing is dropped or leaked. board -1 lets the
// placement scheduler choose. Returns the chosen board.
func (s *System) Migrate(acc AccID, board int) (int, error) { return s.rt.Migrate(acc, board) }

// Replicate warms a replica of the accelerator on another board and adds
// it to the acc's weighted round-robin rotation once ready. With a warm
// replica in place, losing the primary's board costs no measurable
// goodput: the replica is promoted instantly. board -1 lets the
// scheduler choose. Returns the chosen board.
func (s *System) Replicate(acc AccID, board int) (int, error) { return s.rt.Replicate(acc, board) }

// Rebalance moves every accelerator whose primary sits on a lost or
// draining board: replica promotion when possible, live migration
// otherwise. Returns how many were moved.
func (s *System) Rebalance() (int, error) { return s.rt.Rebalance() }

// DrainBoard stops new placements on the board and rebalances its
// accelerators away; the board keeps serving until they are gone.
// Returns how many were moved.
func (s *System) DrainBoard(board int) (int, error) { return s.rt.DrainBoard(board) }

// UndrainBoard returns a draining board to service.
func (s *System) UndrainBoard(board int) error { return s.rt.UndrainBoard(board) }

// OfflineBoard hard-kills a board — the simulation's stand-in for
// pulling the card — and rebalances off it. In-flight batches fail
// cleanly and are attributed in the drop ledger. Returns how many
// accelerators were moved.
func (s *System) OfflineBoard(board int) (int, error) { return s.rt.OfflineBoard(board) }
