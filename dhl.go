package dhl

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// Identifier types from the paper's data plane tags.
type (
	// NFID is an nf_id assigned by Register.
	NFID = core.NFID
	// AccID is an acc_id resolved by SearchByName/LoadPR.
	AccID = core.AccID
)

// Packet is the rte_mbuf-style packet buffer NFs exchange with the
// runtime. See the mbuf methods for header/payload manipulation.
type Packet = mbuf.Mbuf

// Pool is a pre-allocated packet-buffer pool.
type Pool = mbuf.Pool

// Queue is the lockless ring type backing IBQs and OBQs.
type Queue = ring.Ring[*mbuf.Mbuf]

// Module is the functional interface a custom accelerator module
// implements (§IV-C "self-built accelerator modules").
type Module = fpga.Module

// ModuleSpec describes an accelerator module for the database.
type ModuleSpec = fpga.ModuleSpec

// Stock hardware function names shipped in the accelerator module
// database.
const (
	// IPsecCrypto is the AES-256-CTR + HMAC-SHA1 module (Table VI).
	IPsecCrypto = hwfunc.IPsecCryptoName
	// PatternMatching is the multi-pipeline AC-DFA module (Table VI).
	PatternMatching = hwfunc.PatternMatchingName
	// Loopback is the DMA benchmarking module (§IV-A3).
	Loopback = hwfunc.LoopbackName
	// IPsecDecrypt is the decryption-direction module (§IV-C).
	IPsecDecrypt = hwfunc.IPsecDecryptName
)

// Fault-injection types for chaos runs (see internal/faultinject): a
// FaultPlan is a seeded, deterministic schedule of injected faults shared
// by the DMA engines, the FPGA devices and the runtime's transfer cores.
type (
	// FaultKind selects an injected failure mode.
	FaultKind = faultinject.Kind
	// FaultSpec schedules one fault kind (every-Nth draw and/or
	// probabilistic, with an optional budget and stall duration).
	FaultSpec = faultinject.Spec
	// FaultPlan is the seeded deterministic injection schedule.
	FaultPlan = faultinject.Plan
)

// Injectable fault kinds.
const (
	FaultDMAH2CError     = faultinject.DMAH2CError
	FaultDMAH2CCorrupt   = faultinject.DMAH2CCorrupt
	FaultDMAH2CStall     = faultinject.DMAH2CStall
	FaultDMAC2HError     = faultinject.DMAC2HError
	FaultDMAC2HCorrupt   = faultinject.DMAC2HCorrupt
	FaultDMAC2HStall     = faultinject.DMAC2HStall
	FaultModuleError     = faultinject.ModuleError
	FaultModuleGarbage   = faultinject.ModuleGarbage
	FaultModuleHang      = faultinject.ModuleHang
	FaultRegionSEU       = faultinject.RegionSEU
	FaultCompletionStall = faultinject.CompletionStall
	FaultBoardOffline    = faultinject.BoardOffline
	FaultICAPWedge       = faultinject.ICAPWedge
	FaultPCIeLinkFlap    = faultinject.PCIeLinkFlap
)

// NewFaultPlan builds a deterministic fault plan from a seed; the same
// seed and specs reproduce the same injection schedule.
func NewFaultPlan(seed uint64, specs ...FaultSpec) (*FaultPlan, error) {
	return faultinject.NewPlan(seed, specs...)
}

// Telemetry types from internal/telemetry, re-exported so applications
// can consume snapshots and spans without importing an internal package.
type (
	// TelemetryRegistry is the system's metric registry: per-stage latency
	// histograms, per-core counters, health-FSM transition counters, pull
	// gauges and the batch span ring.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of every metric; subtract
	// two with Delta for interval rates.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetrySpan is one batch's trace through the pipeline: identity
	// (nf_id, acc_id), sizes, per-stage completion timestamps and outcome.
	TelemetrySpan = telemetry.Span
	// TelemetryStage indexes the pipeline stages a batch passes through
	// (ibq_wait, pack, h2c, accelerator, c2h, distribute).
	TelemetryStage = telemetry.Stage
	// MetricsExporter serves the registry over HTTP: Prometheus text on
	// /metrics, expvar JSON on /debug/vars, pprof under /debug/pprof/.
	MetricsExporter = telemetry.Exporter
)

// Pipeline stages of the per-stage latency histograms
// (TelemetrySnapshot.Stages indexes).
const (
	StageIBQWait    = telemetry.StageIBQWait
	StagePack       = telemetry.StagePack
	StageH2C        = telemetry.StageH2C
	StageAccel      = telemetry.StageAccel
	StageC2H        = telemetry.StageC2H
	StageDistribute = telemetry.StageDistribute
	// NumStages is the length of TelemetrySnapshot.Stages; iterate
	// stages with `for s := StageIBQWait; s < NumStages; s++`.
	NumStages = telemetry.NumStages
)

// Per-core telemetry counter kinds (TelemetrySnapshot.CounterTotal).
const (
	CounterBatches            = telemetry.CounterBatches
	CounterPackets            = telemetry.CounterPackets
	CounterBytes              = telemetry.CounterBytes
	CounterFallbackBatches    = telemetry.CounterFallbackBatches
	CounterUnprocessedBatches = telemetry.CounterUnprocessedBatches
	CounterFailedBatches      = telemetry.CounterFailedBatches
	CounterCorruptBatches     = telemetry.CounterCorruptBatches
	CounterDMARetries         = telemetry.CounterDMARetries
)

// Batch span outcomes (TelemetrySpan.Outcome).
const (
	OutcomeOK          = telemetry.OutcomeOK
	OutcomeFallback    = telemetry.OutcomeFallback
	OutcomeUnprocessed = telemetry.OutcomeUnprocessed
	OutcomeFailed      = telemetry.OutcomeFailed
	OutcomeCorrupt     = telemetry.OutcomeCorrupt
)

// Flow-table types from internal/flowtab, re-exported so applications
// can register their NFs' flow state for observability.
type (
	// FlowTableSource is the telemetry-facing face of a flow table;
	// stateful NFs expose their tables through it (e.g.
	// FlowFirewall.FlowTabs).
	FlowTableSource = flowtab.Source
	// FlowTableStats is one flow table's counter snapshot: occupancy,
	// memory, hit/miss, eviction and rehash counters.
	FlowTableStats = flowtab.Stats
	// FlowTableInfo is a named FlowTableStats row, the shape FlowTables
	// and the stats.get management call report.
	FlowTableInfo = flowtab.Info
)

// Adaptive-batching autotuner types from internal/tuner and the batching
// knobs from internal/core, re-exported for the facade.
type (
	// TunerStatus is the controller's operator-facing state: windows
	// closed, decisions applied, and the current per-accelerator and
	// per-node targets. Also the `tune.auto` RPC's result shape.
	TunerStatus = tuner.Status
	// AccTuning is one member of the batching-knob family: an accelerator's
	// own values, or for acc_id 0 the defaults their zero fields inherit.
	AccTuning = core.AccTuning
)

// Health is an accelerator's health state (healthy/degraded/quarantined).
type Health = core.Health

// Accelerator health states.
const (
	Healthy     = core.HealthHealthy
	Degraded    = core.HealthDegraded
	Quarantined = core.HealthQuarantined
)

// HealthReport is a point-in-time accelerator health snapshot.
type HealthReport = core.HealthReport

// TransferStats is the per-node transfer-layer counter snapshot,
// including the fault/recovery and drop-attribution ledger.
type TransferStats = core.TransferStats

// Packet dispositions stamped on delivered packets (Packet.Status).
const (
	StatusOK          = mbuf.StatusOK
	StatusFallback    = mbuf.StatusFallback
	StatusUnprocessed = mbuf.StatusUnprocessed
)

// SystemConfig parameterizes Open.
type SystemConfig struct {
	// Nodes is the NUMA node count. Zero selects 1.
	Nodes int
	// FPGAsPerNode is the number of VC709-class boards per node. Zero
	// selects 1.
	FPGAsPerNode int
	// Telemetry arms the zero-allocation telemetry subsystem: per-stage
	// latency histograms, per-core counters, occupancy gauges and the
	// batch span ring. Off (the default) leaves the hot path exactly as
	// before; on, recording stays allocation-free in steady state. The
	// span ring keeps the most recent telemetry.DefaultSpanCap batches.
	Telemetry bool
}

// poolCapacity is the shared mbuf pool's size.
const poolCapacity = 16384

// System bundles a complete simulated DHL deployment: the discrete-event
// simulation, an mbuf pool, one or more FPGAs with DMA engines, and the
// DHL Runtime with its transfer cores attached. Its methods are the
// paper's Table II API and what drives the simulation; management goes
// through Control.
type System struct {
	sim     *eventsim.Sim
	pool    *mbuf.Pool
	rt      *core.Runtime
	tel     *telemetry.Registry
	control Control
	// api records that WithControlPlane armed the management API; Serve
	// mounts /api/v1 only then.
	api bool
}

// Option customizes Open beyond the plain SystemConfig fields. Options
// apply after cfg, so they win over the corresponding field.
type Option func(*openConfig)

type openConfig struct {
	cfg      SystemConfig
	faults   *FaultPlan
	settle   bool
	api      bool
	autotune bool
}

// WithFaultPlan arms deterministic fault injection: the plan is shared
// by every DMA engine, FPGA device and the transfer cores, so one seed
// reproduces a whole chaos run. Also arms the batch watchdog (250 µs) and
// the accelerator health FSM.
func WithFaultPlan(p *FaultPlan) Option {
	return func(o *openConfig) { o.faults = p }
}

// WithControlPlane arms the runtime management API: Serve additionally
// mounts the JSON-RPC 2.0 endpoint on /api/v1, next to /metrics and
// /debug/*. The control plane rides the telemetry mux, so this option
// also enables telemetry.
func WithControlPlane() Option {
	return func(o *openConfig) {
		o.api = true
		o.cfg.Telemetry = true
	}
}

// WithAutoTune arms the adaptive batching autotuner: a closed-loop
// controller on the event loop that samples per-accelerator batch spans
// and IBQ pressure and retunes batch size, flush timeout and poll burst
// through the live-management surface (see internal/tuner). The
// controller's signals come from telemetry, so this option also enables
// it. The system opens with the controller already enabled; flip it at
// runtime with Control().AutoTuneEnable/AutoTuneDisable or the `tune.auto`
// management call.
func WithAutoTune() Option {
	return func(o *openConfig) {
		o.autotune = true
		o.cfg.Telemetry = true
	}
}

// WithoutSettle skips the boot settle: Open returns with the initial
// partial reconfigurations still in flight, for callers that want to
// observe (or drive) the boot sequence themselves.
func WithoutSettle() Option {
	return func(o *openConfig) { o.settle = false }
}

// buildSystem wires a System with the stock accelerator modules
// (hwfunc.Specs: ipsec-crypto, pattern-matching, loopback, ipsec-decrypt)
// pre-registered in the database; Control().RegisterModule adds any other.
func buildSystem(cfg SystemConfig, faults *FaultPlan) (*System, error) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "dhl-system", Capacity: poolCapacity})
	if err != nil {
		return nil, err
	}
	sys := &System{sim: sim, pool: pool}
	if cfg.Telemetry {
		sys.tel = telemetry.New(telemetry.DefaultSpanCap)
		p := pool
		sys.tel.RegisterGauge("dhl_mbuf_in_use", "", "Packet buffers currently leased from the shared pool.",
			func() float64 { return float64(p.InUse()) })
		sys.tel.RegisterGauge("dhl_mbuf_capacity", "", "Total packet buffers in the shared pool.",
			func() float64 { return float64(p.Capacity()) })
	}

	rt, err := core.NewRuntime(core.Config{
		Sim:           sim,
		Nodes:         cfg.Nodes,
		BoardsPerNode: cfg.FPGAsPerNode,
		Pool:          pool,
		Faults:        faults,
		Telemetry:     sys.tel,
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range hwfunc.Specs() {
		if rerr := rt.RegisterModule(spec); rerr != nil {
			return nil, rerr
		}
	}
	sys.rt = rt
	sys.control = Control{Runtime: rt, sys: sys}
	if sys.tel != nil {
		registerBoardGauges(sys.tel, rt)
	}
	return sys, nil
}

// registerBoardGauges puts each of the runtime's boards on /metrics: its
// device's resource use and reloads, its DMA engine's backlog, and its
// placement state.
func registerBoardGauges(tel *telemetry.Registry, rt *core.Runtime) {
	sched := rt.Placement()
	for b := 0; ; b++ {
		d, err := rt.Device(b)
		if err != nil {
			return // past the last board
		}
		e, err := rt.DMA(b)
		if err != nil {
			return
		}
		fpgaLabel := fmt.Sprintf("fpga=%q", fmt.Sprint(b))
		tel.RegisterGauge("dhl_fpga_utilization", fpgaLabel+`,res="luts"`,
			"Fraction of reconfigurable-part resources in use.",
			func() float64 { return d.UtilizationLUTs() })
		tel.RegisterGauge("dhl_fpga_utilization", fpgaLabel+`,res="bram"`,
			"Fraction of reconfigurable-part resources in use.",
			func() float64 { return d.UtilizationBRAM() })
		tel.RegisterGauge("dhl_fpga_reloads", fpgaLabel,
			"Completed recovery partial-reconfiguration reloads.",
			func() float64 { return float64(d.Reloads()) })
		tel.RegisterGauge("dhl_dma_backlog_ps", fpgaLabel+`,dir="h2c"`,
			"How far in the future the DMA channel is booked, in picoseconds.",
			func() float64 { return float64(e.Backlog(pcie.H2C)) })
		tel.RegisterGauge("dhl_dma_backlog_ps", fpgaLabel+`,dir="c2h"`,
			"How far in the future the DMA channel is booked, in picoseconds.",
			func() float64 { return float64(e.Backlog(pcie.C2H)) })
		boardLabel := fmt.Sprintf("board=%q", fmt.Sprint(b))
		tel.RegisterGauge("dhl_board_state", boardLabel,
			"Board lifecycle state: 1 alive, 2 draining, 3 lost.",
			func() float64 { return float64(sched.BoardHealthOf(b)) })
		tel.RegisterGauge("dhl_board_accs", boardLabel,
			"Route endpoints (primaries and replicas) bound to the board.",
			func() float64 { return float64(len(rt.PlacementTable()[b].Endpoints)) })
		tel.RegisterGauge("dhl_board_migrations", boardLabel+`,dir="in"`,
			"Completed migration/promotion cutovers, by direction.",
			func() float64 { in, _ := sched.Migrations(b); return float64(in) })
		tel.RegisterGauge("dhl_board_migrations", boardLabel+`,dir="out"`,
			"Completed migration/promotion cutovers, by direction.",
			func() float64 { _, out := sched.Migrations(b); return float64(out) })
	}
}

// Open builds a System with cfg, applies the options, and (unless
// WithoutSettle) settles it: virtual time advances far enough that the
// initial partial reconfigurations are done and the data path is ready
// for traffic. It is the one entry point — WithFaultPlan arms fault
// injection, WithControlPlane the runtime management API, WithoutSettle
// returns with the boot reconfigurations in flight.
func Open(cfg SystemConfig, opts ...Option) (*System, error) {
	oc := openConfig{cfg: cfg, settle: true}
	for _, opt := range opts {
		opt(&oc)
	}
	sys, err := buildSystem(oc.cfg, oc.faults)
	if err != nil {
		return nil, err
	}
	sys.api = oc.api
	if oc.autotune {
		if err := sys.control.AutoTuneEnable(); err != nil {
			return nil, err
		}
	}
	if oc.settle {
		sys.Settle()
	}
	return sys, nil
}

// Sim exposes the simulation clock/event loop so applications can build
// their own actors (I/O cores, generators) and advance virtual time.
func (s *System) Sim() *eventsim.Sim { return s.sim }

// Snapshot copies every telemetry metric at this instant: per-stage and
// DMA/dispatch histograms, per-core counters, health-FSM transition
// counts, gauge values and the recent batch spans. Returns nil when
// telemetry is off. Subtract two snapshots with Delta to get
// interval-scoped counts.
func (s *System) Snapshot() *TelemetrySnapshot {
	if s.tel == nil {
		return nil
	}
	return s.tel.Snapshot()
}

// Pool exposes the system's packet-buffer pool.
func (s *System) Pool() *mbuf.Pool { return s.pool }

// Runtime exposes the underlying DHL runtime, for wiring that takes a
// *core.Runtime directly: the internal/nf constructors and the
// per-layer benchmarks.
func (s *System) Runtime() *core.Runtime { return s.rt }

// Settle advances virtual time by 100 ms so outstanding partial
// reconfigurations complete before the data path starts.
func (s *System) Settle() {
	s.sim.Run(s.sim.Now() + 100*eventsim.Millisecond)
}

// --- Table II API -------------------------------------------------------

// Register implements DHL_register().
func (s *System) Register(name string, node int) (NFID, error) {
	return s.rt.Register(name, node)
}

// SearchByName implements DHL_search_by_name(), loading the module's PR
// bitstream on a miss.
func (s *System) SearchByName(hfName string, node int) (AccID, error) {
	return s.rt.SearchByName(hfName, node)
}

// LoadPR implements DHL_load_pr() explicitly.
func (s *System) LoadPR(hfName string, node int) (AccID, error) {
	return s.rt.LoadPR(hfName, node)
}

// AccConfigure implements DHL_acc_configure().
func (s *System) AccConfigure(acc AccID, params []byte) error {
	return s.rt.AccConfigure(acc, params)
}

// SharedIBQ implements DHL_get_shared_IBQ().
func (s *System) SharedIBQ(node int) (*Queue, error) { return s.rt.SharedIBQ(node) }

// PrivateOBQ implements DHL_get_private_OBQ().
func (s *System) PrivateOBQ(id NFID) (*Queue, error) { return s.rt.PrivateOBQ(id) }

// SendPackets implements DHL_send_packets(); it returns how many packets
// the shared IBQ accepted. That count is the NF's one refusal signal: the
// caller keeps ownership of the rest, and the runtime counts each refusal
// once, in Stats(node).IBQRejected, never as a silent drop.
func (s *System) SendPackets(id NFID, pkts []*Packet) (int, error) {
	return s.rt.SendPackets(id, pkts)
}

// ReceivePackets implements DHL_receive_packets().
func (s *System) ReceivePackets(id NFID, dst []*Packet) (int, error) {
	return s.rt.ReceivePackets(id, dst)
}

// Stats snapshots a node's transfer-layer counters, including the
// fault-attribution and drop ledger.
func (s *System) Stats(node int) (TransferStats, error) {
	return s.rt.Stats(node)
}
