// Package core implements the DHL Runtime, the paper's primary
// contribution (§III-C, Figure 2): the Controller that manages NF
// registration, the hardware function table and the accelerator module
// database; the shared input buffer queues and private output buffer
// queues that isolate NFs from one another; and the data transfer layer
// (Packer, Distributor, poll-mode TX/RX cores) that batches packets over
// the DMA engine to accelerator modules on FPGAs.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// NFID identifies a registered network function (paper: nf_id).
type NFID uint16

// AccID identifies a loaded accelerator module instance (paper: acc_id).
type AccID uint16

// Errors returned by the runtime.
var (
	ErrUnknownHF      = errors.New("core: hardware function not in accelerator module database")
	ErrUnknownNF      = errors.New("core: unknown nf_id")
	ErrUnknownAcc     = errors.New("core: unknown acc_id")
	ErrNFClosed       = errors.New("core: nf has unregistered")
	ErrDuplicateHF    = errors.New("core: module already registered in database")
	ErrDuplicateNF    = errors.New("core: a live nf already holds that name")
	ErrCapacity       = errors.New("core: FPGA capacity exhausted")
	ErrBadBatchConfig = errors.New("core: invalid batching configuration")
)

// MinBatchBytes is the floor of every batch-size target: the default
// and each accelerator's own, as SetAccBatchBytes and the tuner set them.
const MinBatchBytes = 512

// defaultBurst is the TX/RX poll cores' per-iteration dequeue burst at
// construction: how many IBQ packets (TX) or DMA completions (RX) one poll
// claims, the rte_eth_rx_burst convention. SetBurst moves it per node.
const defaultBurst = 64

// ibqSize is each node's shared input buffer queue ring size, obqSize
// each NF's private output buffer queue's; a ring holds one entry fewer.
const (
	ibqSize = 256
	obqSize = 1024
)

// board is one FPGA with the SG-DMA engine in front of it.
type board struct {
	dev *fpga.Device
	dma *pcie.Engine
}

// Config parameterizes the Runtime: the platform it builds (nodes, boards
// per node, the DMA driver) and the knobs of its data path.
type Config struct {
	// Sim is the discrete-event simulation the runtime's actors run on.
	Sim *eventsim.Sim
	// Nodes is the number of NUMA nodes (Figure 3's topology). Zero
	// selects 1.
	Nodes int
	// BoardsPerNode is the number of VC709-class boards on each node's
	// PCIe root, each behind its own DMA engine. Zero selects 1.
	BoardsPerNode int
	// Driver selects the DMA engines' driver model; zero selects UIO
	// polling (§IV-A2).
	Driver pcie.DriverMode
	// RemoteNUMA applies the cross-socket access penalty to every DMA
	// engine (§IV-A2).
	RemoteNUMA bool
	// Pool is the packet-buffer pool the Distributor returns dropped
	// packets to. Required.
	Pool *mbuf.Pool
	// BatchBytes is the maximum DMA batch size, at least MinBatchBytes.
	// Zero selects the paper's 6 KB.
	BatchBytes int
	// FlushTimeout bounds how long a partially filled batch may wait
	// before being forced out. Zero selects 20us.
	FlushTimeout eventsim.Time

	// Faults is the shared fault-injection plan, handed to every board,
	// every DMA engine and the transfer layer. Nil injects nothing. The
	// detection and recovery machinery — the batch watchdog, the
	// per-accelerator health state machine and graceful degradation to
	// registered software fallbacks — runs in every runtime, plan or not,
	// so a fault a board-only plan (fpga.Device.SetFaults) injects is
	// caught the same way.
	Faults *faultinject.Plan

	// Telemetry, when set, arms the zero-allocation telemetry layer: the
	// per-batch stage clock (IBQ wait → pack → H2C → accelerator → C2H →
	// distribute) recorded into the registry's histograms, the per-batch
	// trace span ring, per-core counter blocks, health-transition
	// counters, and occupancy pull gauges for the rings and the batch
	// arena. Nil leaves the hot path exactly as before; with it set, the
	// steady-state allocation budget is still zero (everything the data
	// path records into is preallocated and atomic).
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.Sim == nil {
		return c, errors.New("core: Config.Sim is required")
	}
	if c.Nodes < 0 || c.BoardsPerNode < 0 {
		return c, fmt.Errorf("core: %d nodes of %d boards each", c.Nodes, c.BoardsPerNode)
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = perf.DefaultBatchBytes
	}
	if c.BatchBytes < MinBatchBytes {
		return c, fmt.Errorf("%w: %d < min %d", ErrBadBatchConfig, c.BatchBytes, MinBatchBytes)
	}
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 20 * eventsim.Microsecond
	}
	if c.BoardsPerNode == 0 {
		c.BoardsPerNode = 1
	}
	if c.Pool == nil {
		return c, errors.New("core: Config.Pool is required")
	}
	return c, nil
}

// hfEntry is one hardware function table row (Figure 2: hf.name, s.id,
// a.id, f.id), and the one store of anything kept per accelerator: where
// it runs (route), how its batches are cut (tune), its configuration and
// its health. f.id and the row's readiness are its route's primary
// endpoint.
type hfEntry struct {
	name  string
	node  int
	accID AccID
	spec  fpga.ModuleSpec

	// tune holds the accelerator's own batching knobs; zero fields
	// inherit the runtime's defaults (see AccTuning).
	tune AccTuning

	// cfgBlobs records every AccConfigure blob in arrival order — applied
	// ones, and ones sent while no instance was up to take them — so every
	// fresh instance is brought up by the same replay: the initial load, a
	// PR reload, a migration target, a warming replica, and a software
	// fallback at registration so it is functionally equivalent.
	cfgBlobs [][]byte

	// route is the acc's live routing state (primary + replicas with
	// weights); the Packer consults it directly on every flush. Its
	// primary endpoint is the one the health FSM tracks. LoadPR builds it
	// before the entry enters the table (and before any PR completes), so
	// it is never nil.
	route *placement.Route
	// epoch increments at every cutover (migration, replica promotion) so
	// stragglers from a previous placement cannot poison the fresh
	// instance's health accounting.
	epoch uint32
	// migrating guards against concurrent re-placements of the same acc.
	migrating bool

	// Health FSM state.
	health      Health
	consecFails int
	faults      uint64 // lifetime batch failures attributed to this acc
	quarantines uint64
	reloads     uint64
	reloading   bool
	fallback    fpga.Module
}

// nfEntry is the Controller's per-NF state.
type nfEntry struct {
	name   string
	node   int
	obq    *ring.Ring[*mbuf.Mbuf]
	closed bool
}

// Runtime is the DHL Runtime.
type Runtime struct {
	sim *eventsim.Sim
	cfg Config

	// boards are the fleet in board-id order: node-major, so board b sits
	// on node b / BoardsPerNode.
	boards []board

	db map[string]fpga.ModuleSpec
	// accs is the hardware function table, indexed by acc_id. Entry 0 —
	// an id LoadPR never assigns — and evicted ids are nil; ids are never
	// reused, so nextAcc is the highest ever handed out.
	accs    []*hfEntry
	nextAcc AccID

	// sched is the fleet placement scheduler: it keeps the board ledgers
	// and decides which board hosts each module. The runtime actuates its
	// decisions (ICAP writes, config replay, cutover).
	sched *placement.Scheduler

	nfs    []*nfEntry // index = NFID-1
	ibqs   []*ring.Ring[*mbuf.Mbuf]
	nodeTx []*txEngine
	nodeRx []*rxEngine

	// ibqHot is each node's high-water latch over its shared IBQ (see
	// notePressure).
	ibqHot []bool

	// defaults are the batching knobs every accelerator inherits where
	// its row's own are zero (see AccTuning).
	defaults AccTuning

	// tel caches Config.Telemetry (nil when telemetry is off) so hot
	// paths pay one nil check, not a config indirection.
	tel *telemetry.Registry
}

// NewRuntime builds a Runtime and the platform it drives: Nodes ×
// BoardsPerNode boards in node-major id order, each behind its own DMA
// engine, and per node a shared IBQ and the TX/RX core pair of Table IV,
// started. The fault plan and the telemetry registry reach every board,
// every engine and the runtime, so one seed drives every injection layer.
// The accelerator module database starts empty; call RegisterModule
// (hwfunc.Specs() is the whole stock catalogue) before NFs search for
// hardware functions.
func NewRuntime(cfg Config) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		sim:    cfg.Sim,
		cfg:    cfg,
		db:     make(map[string]fpga.ModuleSpec),
		nodeTx: make([]*txEngine, cfg.Nodes),
		nodeRx: make([]*rxEngine, cfg.Nodes),
		tel:    cfg.Telemetry,

		ibqHot:   make([]bool, cfg.Nodes),
		defaults: AccTuning{BatchBytes: cfg.BatchBytes, FlushTimeout: cfg.FlushTimeout},
	}
	devices := make([]*fpga.Device, cfg.Nodes*cfg.BoardsPerNode)
	r.boards = make([]board, len(devices))
	for id := range devices {
		dev, derr := fpga.NewDevice(cfg.Sim, fpga.Config{ID: id, Node: id / cfg.BoardsPerNode, Telemetry: cfg.Telemetry})
		if derr != nil {
			return nil, derr
		}
		dev.SetFaults(cfg.Faults)
		dma := pcie.NewEngine(cfg.Sim, pcie.Config{
			Mode: cfg.Driver, RemoteNUMA: cfg.RemoteNUMA, Faults: cfg.Faults, Telemetry: cfg.Telemetry,
		})
		devices[id], r.boards[id] = dev, board{dev: dev, dma: dma}
	}
	r.sched = placement.New(devices)
	for node := 0; node < cfg.Nodes; node++ {
		ibq, rerr := ring.New[*mbuf.Mbuf]("ibq-node"+strconv.Itoa(node), ibqSize)
		if rerr != nil {
			return nil, rerr
		}
		r.ibqs = append(r.ibqs, ibq)
		if r.tel != nil {
			q := ibq
			r.tel.RegisterGauge("dhl_ring_occupancy", fmt.Sprintf("ring=%q", q.Name()),
				"Current queue depth of a runtime ring (IBQ, OBQ, DMA completion).",
				func() float64 { return float64(q.Len()) })
			n := node
			r.tel.RegisterGauge("dhl_ibq_pressure", fmt.Sprintf("node=\"%d\"", node),
				"Shared-IBQ back-pressure latch: 1 while the queue sits above its high-water mark.",
				func() float64 {
					if r.ibqHot[n] {
						return 1
					}
					return 0
				})
		}
	}
	for node := 0; node < cfg.Nodes; node++ {
		if err := r.attachCores(node); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Device returns board b, for code that reads a device (floorplans, fault
// counters, gauges) or drives it by hand.
func (r *Runtime) Device(b int) (*fpga.Device, error) {
	if b < 0 || b >= len(r.boards) {
		return nil, fmt.Errorf("%w: %d of %d", placement.ErrUnknownBoard, b, len(r.boards))
	}
	return r.boards[b].dev, nil
}

// DMA returns the DMA engine in front of board b, for gauges.
func (r *Runtime) DMA(b int) (*pcie.Engine, error) {
	if b < 0 || b >= len(r.boards) {
		return nil, fmt.Errorf("%w: %d of %d", placement.ErrUnknownBoard, b, len(r.boards))
	}
	return r.boards[b].dma, nil
}

// Placement exposes the fleet scheduler for inspection (control plane,
// gauges). Mutation goes through the runtime's own methods — Migrate,
// Replicate, Rebalance, DrainBoard, OfflineBoard — which actuate what the
// scheduler decides.
func (r *Runtime) Placement() *placement.Scheduler { return r.sched }

// PlacementTable snapshots the fleet: every board's state, remaining
// resources and routed endpoints, in board order, each board's endpoints
// in acc_id order.
func (r *Runtime) PlacementTable() []placement.BoardInfo {
	var routes []*placement.Route
	for _, e := range r.accs {
		if e != nil {
			routes = append(routes, e.route)
		}
	}
	return r.sched.Snapshot(routes)
}

// row returns the live hardware function table row of an acc_id, or nil.
// Packets carry any acc_id an NF writes, so the index is bounds-checked.
//
//dhl:hotpath
func (r *Runtime) row(id AccID) *hfEntry {
	if int(id) < len(r.accs) {
		return r.accs[id]
	}
	return nil
}

// acc is row for the API: an unknown or evicted acc_id is ErrUnknownAcc.
func (r *Runtime) acc(id AccID) (*hfEntry, error) {
	if e := r.row(id); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownAcc, id)
}

// byName returns the newest live row serving (name, node), or nil: the
// row a load of that name on that node last created and that has not
// been evicted since.
func (r *Runtime) byName(name string, node int) *hfEntry {
	for i := len(r.accs) - 1; i > 0; i-- {
		if e := r.accs[i]; e != nil && e.name == name && e.node == node {
			return e
		}
	}
	return nil
}

// RegisterModule adds a module spec to the accelerator module database.
// Per §IV-C, software developers may add self-built accelerator modules as
// long as they follow the design specification.
func (r *Runtime) RegisterModule(spec fpga.ModuleSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("core: module spec has no name")
	}
	if _, dup := r.db[spec.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateHF, spec.Name)
	}
	r.db[spec.Name] = spec
	return nil
}

// ModuleDB lists the registered hardware function names, sorted: the
// database is a map, and two calls must not disagree on its order.
func (r *Runtime) ModuleDB() []string {
	names := make([]string, 0, len(r.db))
	for n := range r.db {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Register implements DHL_register(): it admits an NF, assigns its nf_id
// and creates its private OBQ (§III-C). The name is the OBQ's name, so
// two live NFs cannot share one; an unregistered NF's name is free again.
func (r *Runtime) Register(name string, node int) (NFID, error) {
	if node < 0 || node >= r.cfg.Nodes {
		return 0, fmt.Errorf("core: node %d out of range [0,%d)", node, r.cfg.Nodes)
	}
	for _, nf := range r.nfs {
		if !nf.closed && nf.name == name {
			return 0, fmt.Errorf("%w: %q", ErrDuplicateNF, name)
		}
	}
	// One producer (the Distributor); an NF may drain its OBQ from one
	// core per port (§V-D's wiring), all on the simulator's goroutine.
	obq, err := ring.New[*mbuf.Mbuf]("obq-"+name, obqSize)
	if err != nil {
		return 0, err
	}
	r.nfs = append(r.nfs, &nfEntry{name: name, node: node, obq: obq})
	if r.tel != nil {
		r.tel.RegisterGauge("dhl_ring_occupancy", fmt.Sprintf("ring=%q", obq.Name()),
			"Current queue depth of a runtime ring (IBQ, OBQ, DMA completion).",
			func() float64 { return float64(obq.Len()) })
	}
	return NFID(len(r.nfs)), nil
}

// Unregister removes an NF. Packets already parked on its OBQ are freed
// back to the runtime's pool immediately, and packets still in flight return
// through the Distributor's closed-NF path as each batch completes; both
// are counted DropNFClosed in the node's ledger. Nothing is stranded, and
// the isolation guarantee holds: a departing NF cannot receive another
// NF's packets, nor leak its own to a successor nf_id.
func (r *Runtime) Unregister(id NFID) error {
	nf, err := r.nf(id)
	if err != nil {
		return err
	}
	nf.closed = true
	if r.tel != nil {
		// Drop the OBQ occupancy gauge so scrapes do not accumulate stale
		// rings. Live NFs have distinct names, so the series is this NF's.
		r.tel.UnregisterGauge("dhl_ring_occupancy", fmt.Sprintf("ring=%q", nf.obq.Name()))
	}
	stats := &r.nodeTx[nf.node].stats
	var burst [64]*mbuf.Mbuf
	for {
		n := nf.obq.DequeueBurst(burst[:])
		if n == 0 {
			break
		}
		stats.DropNFClosed += uint64(n)
		for i := 0; i < n; i++ {
			_ = r.cfg.Pool.Free(burst[i])
			burst[i] = nil
		}
	}
	return nil
}

func (r *Runtime) nf(id NFID) (*nfEntry, error) {
	if id == 0 || int(id) > len(r.nfs) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNF, id)
	}
	nf := r.nfs[id-1]
	if nf.closed {
		return nil, fmt.Errorf("%w: %d", ErrNFClosed, id)
	}
	return nf, nil
}

// SearchByName implements DHL_search_by_name(): it resolves hf_name on the
// NF's NUMA node via the hardware function table; on a miss it consults
// the accelerator module database and triggers DHL_load_pr() itself, as
// described in §IV-C. The returned acc_id is usable immediately — batches
// destined for a still-reconfiguring region are held by the Packer until
// the region comes up.
func (r *Runtime) SearchByName(name string, node int) (AccID, error) {
	if e := r.byName(name, node); e != nil {
		return e.accID, nil
	}
	return r.LoadPR(name, node)
}

// LoadPR implements DHL_load_pr(): it asks the placement scheduler for a
// board (NUMA-preferring first-fit over the fleet's LUT/BRAM accounting),
// reserves a reconfigurable part, and streams the PR bitstream through
// ICAP without disturbing other running regions. A board whose ICAP write
// fails (an injected wedge) is excluded and placement retries elsewhere.
func (r *Runtime) LoadPR(name string, node int) (AccID, error) {
	spec, ok := r.db[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownHF, name)
	}
	if r.nextAcc == math.MaxUint16 {
		// acc_ids are never reused: a wrapped counter would hand out 0,
		// which names the knob family's defaults, and then ids live rows
		// hold.
		return 0, fmt.Errorf("%w: acc_id space exhausted", ErrCapacity)
	}
	entry := &hfEntry{name: name, node: node, accID: r.nextAcc + 1, spec: spec, health: HealthHealthy}
	var lastErr error
	var exclude []int
	for entry.route == nil {
		idx, perr := r.sched.Place(spec, node, exclude)
		if perr != nil {
			if lastErr == nil {
				lastErr = perr
			}
			break
		}
		// The endpoint turns ready, and is configured, when the PR write
		// completes.
		dev := r.boards[idx].dev
		region, lerr := dev.LoadPR(spec, func(ri int) {
			entry.route.SetReady(idx, ri, true)
			entry.replay(dev, ri)
		})
		if lerr != nil {
			lastErr = lerr
			exclude = append(exclude, idx)
			continue
		}
		entry.route = placement.NewRoute(uint16(entry.accID), name, idx, region)
	}
	if entry.route == nil {
		return 0, fmt.Errorf("%w: %q does not fit on any board: %v", ErrCapacity, name, lastErr)
	}
	r.nextAcc = entry.accID
	if grow := int(entry.accID) + 1 - len(r.accs); grow > 0 {
		r.accs = append(r.accs, make([]*hfEntry, grow)...)
	}
	r.accs[entry.accID] = entry
	if r.tel != nil {
		r.tel.RegisterGauge("dhl_acc_health", accHealthLabels(entry.accID, name),
			"Accelerator health-FSM state: 1 healthy, 2 degraded, 3 quarantined.",
			func() float64 { return float64(entry.health) })
	}
	return entry.accID, nil
}

// accHealthLabels renders the dhl_acc_health label list for one
// accelerator; LoadPR registers the gauge with it and Evict removes the
// gauge by the same string.
func accHealthLabels(acc AccID, name string) string {
	return fmt.Sprintf("acc_id=\"%d\",hf=%q", acc, name)
}

// replay brings a fresh module instance up to the accelerator's recorded
// configuration: every blob, once, in the order AccConfigure took them.
// A blob the instance rejects is the NF's own configuration error (or,
// for one accepted before, a module bug); traffic through the instance
// then fails visibly and the health FSM takes it from there.
func (e *hfEntry) replay(dev *fpga.Device, region int) {
	for _, blob := range e.cfgBlobs {
		_ = dev.Configure(region, blob)
	}
}

// AccConfigure implements DHL_acc_configure(): it forwards an NF-supplied
// parameter blob to the accelerator module (via the FPGA's Config module).
// Blobs sent while the region is still reconfiguring are applied when the
// PR completes.
func (r *Runtime) AccConfigure(acc AccID, params []byte) error {
	e, err := r.acc(acc)
	if err != nil {
		return err
	}
	if p := e.route.Primary(); p.Ready {
		if err := r.boards[p.FPGA].dev.Configure(p.Region, params); err != nil {
			return err
		}
	}
	// Record for replay only what the module has accepted, or what it has
	// yet to see (the instance that comes up replays it), and mirror it
	// into a registered fallback so both implementations stay configured
	// identically.
	cp := append([]byte(nil), params...)
	e.cfgBlobs = append(e.cfgBlobs, cp)
	if e.fallback != nil {
		if err := e.fallback.Configure(cp); err != nil {
			return fmt.Errorf("core: fallback for %q rejected config: %w", e.name, err)
		}
	}
	return nil
}

// SharedIBQ implements DHL_get_shared_IBQ(): the per-NUMA-node
// multi-producer single-consumer ingress ring (§IV-A4).
func (r *Runtime) SharedIBQ(node int) (*ring.Ring[*mbuf.Mbuf], error) {
	if node < 0 || node >= len(r.ibqs) {
		return nil, fmt.Errorf("core: node %d out of range [0,%d)", node, len(r.ibqs))
	}
	return r.ibqs[node], nil
}

// PrivateOBQ implements DHL_get_private_OBQ(): the NF's single-producer
// single-consumer egress ring.
func (r *Runtime) PrivateOBQ(id NFID) (*ring.Ring[*mbuf.Mbuf], error) {
	nf, err := r.nf(id)
	if err != nil {
		return nil, err
	}
	return nf.obq, nil
}

// SendPackets implements DHL_send_packets(): the NF enqueues tagged
// packets onto its node's shared IBQ. It returns how many were accepted;
// the caller owns (and typically frees, or retries) the rest, mirroring
// rte_ring_enqueue_burst semantics. The accepted count is the NF's one
// refusal signal; the runtime counts each refusal once, in the node's
// TransferStats.IBQRejected.
func (r *Runtime) SendPackets(id NFID, pkts []*mbuf.Mbuf) (int, error) {
	nf, err := r.nf(id)
	if err != nil {
		return 0, err
	}
	// With telemetry armed, stamp IBQ entry so the TX core can record the
	// queue-wait stage at dequeue. A stamp of zero means "unstamped"; the
	// simulation's instant zero predates any settled system, so no real
	// enqueue is lost to the sentinel.
	var stamp int64
	if r.tel != nil {
		stamp = int64(r.sim.Now())
	}
	for _, m := range pkts {
		m.NFID = uint16(id)
		m.QueuedAt = stamp
	}
	n := r.ibqs[nf.node].EnqueueBurst(pkts)
	r.notePressure(nf.node, len(pkts)-n)
	return n, nil
}

// ReceivePackets implements DHL_receive_packets(): the NF polls its
// private OBQ for post-processed packets.
func (r *Runtime) ReceivePackets(id NFID, dst []*mbuf.Mbuf) (int, error) {
	nf, err := r.nf(id)
	if err != nil {
		return 0, err
	}
	return nf.obq.DequeueBurst(dst), nil
}

// HFTable renders the hardware function table (Figure 2) for inspection.
func (r *Runtime) HFTable() []string {
	rows := []string{}
	for _, e := range r.accs {
		if e == nil {
			continue
		}
		p := e.route.Primary()
		state := "loading"
		if p.Ready {
			state = "ready"
		}
		if e.health != HealthHealthy {
			state += "/" + e.health.String()
		}
		rows = append(rows, fmt.Sprintf("hf=%-18s s.id=%d a.id=%d f.id=%d region=%d (%s)",
			e.name, e.node, e.accID, p.FPGA, p.Region, state))
	}
	return rows
}
