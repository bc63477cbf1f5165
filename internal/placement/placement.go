// Package placement is the fleet scheduler: it owns "which board/region
// serves acc_id X" for a runtime driving several FPGA boards, lifted out
// of internal/core into a routing layer.
//
// The split of responsibilities is deliberate. The Scheduler makes
// decisions and holds the board ledgers: which board a new module should
// land on (NUMA-preferring first-fit over the boards' LUT/BRAM
// accounting, paper Table VI — 5×ipsec-crypto or 2×pattern-matching per
// VC709), and which boards are alive, draining, or lost. The core runtime
// *actuates* those decisions — it streams bitstreams, replays
// configuration, and moves its hardware-function-table row's primary at
// cutover — because only it owns the device handles and the event loop.
//
// A Route is the unit the data path consumes: the set of (board, region)
// endpoints currently serving one acc_id, with a deterministic
// weighted-round-robin Pick the Packer calls once per flushed batch. Each
// route lives on its accelerator's hardware-function-table row, which is
// the one store of per-accelerator state. Pick is allocation-free and
// single-threaded by construction (the simulation event loop), like
// everything else on the hot path.
package placement

import (
	"errors"
	"fmt"
	"strings"

	"github.com/opencloudnext/dhl-go/internal/fpga"
)

// Errors returned by the scheduler.
var (
	// ErrNoBoards reports a placement request against an empty fleet.
	ErrNoBoards = errors.New("placement: no boards in fleet")
	// ErrNoFit reports that no alive board can host the module; the error
	// text carries each board's individual refusal.
	ErrNoFit = errors.New("placement: module fits on no board")
	// ErrUnknownBoard reports a board index outside the fleet.
	ErrUnknownBoard = errors.New("placement: unknown board")
)

// Default per-replica routing weights. A healthy endpoint takes
// DefaultWeight consecutive batches per round-robin turn; a degraded
// primary is shed to ShedWeight so replicas absorb most of the load while
// the FSM decides whether to quarantine.
const (
	DefaultWeight uint32 = 4
	ShedWeight    uint32 = 1
)

// BoardHealth is a board's lifecycle state as the scheduler sees it.
type BoardHealth int

// Board states.
const (
	// BoardAlive accepts placements and serves traffic.
	BoardAlive BoardHealth = iota + 1
	// BoardDraining serves existing traffic but refuses new placements;
	// Rebalance migrates its modules away.
	BoardDraining
	// BoardLost is shut down: every endpoint on it is dead.
	BoardLost
)

// String names the state.
func (h BoardHealth) String() string {
	switch h {
	case BoardAlive:
		return "alive"
	case BoardDraining:
		return "draining"
	case BoardLost:
		return "lost"
	default:
		return fmt.Sprintf("BoardHealth(%d)", int(h))
	}
}

// Endpoint is one (board, region) instance serving an acc_id.
type Endpoint struct {
	// FPGA indexes the runtime's board list (core.Config.FPGAs).
	FPGA int
	// Region is the reconfigurable part hosting the module instance.
	Region int
	// Weight is the endpoint's share of the weighted round-robin: it
	// takes Weight consecutive batches per turn.
	Weight uint32
	// Ready flips true when the endpoint's PR write has completed and its
	// configuration has been replayed.
	Ready bool
	// Disabled removes the endpoint from rotation without forgetting its
	// weight: quarantined primaries and endpoints on lost boards.
	Disabled bool
	// Primary marks the hardware-function table's authoritative endpoint
	// — the one the health FSM tracks.
	Primary bool
}

// servable reports whether Pick may return the endpoint.
func (ep *Endpoint) servable() bool {
	return ep.Ready && !ep.Disabled && ep.Weight > 0
}

// Route is the live routing state for one acc_id: its endpoints plus the
// weighted-round-robin cursor. The transfer layer holds the *Route and
// calls Pick once per flushed batch; all mutation happens on the event
// loop between events, so no locking is needed.
type Route struct {
	acc uint16
	hf  string
	eps []Endpoint

	cursor int
	credit uint32
}

// NewRoute builds the routing state of a freshly placed acc_id: a single
// not-yet-ready primary endpoint at (board, region). The runtime stores
// it on the accelerator's hardware-function-table row; the data path
// consumes it directly.
func NewRoute(acc uint16, hf string, board, region int) *Route {
	return &Route{acc: acc, hf: hf, eps: []Endpoint{{
		FPGA: board, Region: region, Weight: DefaultWeight, Primary: true,
	}}}
}

// Endpoints exposes the route's endpoint slice for cold-path iteration
// (eviction, snapshots). Callers must not grow it.
func (r *Route) Endpoints() []Endpoint { return r.eps }

// Pick selects the endpoint for the next batch: deterministic weighted
// round-robin over the servable endpoints, giving each Weight consecutive
// batches per turn. Returns nil when no endpoint is servable. Pick sits
// on the per-batch data path and does not allocate.
//
//dhl:hotpath
func (r *Route) Pick() *Endpoint {
	if r == nil {
		return nil
	}
	n := len(r.eps)
	for scanned := 0; scanned < n; scanned++ {
		if r.cursor >= n {
			r.cursor, r.credit = 0, 0
		}
		ep := &r.eps[r.cursor]
		if !ep.servable() {
			r.cursor++
			r.credit = 0
			continue
		}
		r.credit++
		if r.credit >= ep.Weight {
			r.cursor++
			r.credit = 0
		}
		return ep
	}
	return nil
}

// HasPending reports whether some endpoint is still coming up (a PR write
// in flight for an initial load, a migration target, or a warming
// replica). The Packer holds staged batches while this is true and no
// endpoint is servable, exactly as it held for a single reconfiguring
// region before routes existed.
//
//dhl:hotpath
func (r *Route) HasPending() bool {
	if r == nil {
		return false
	}
	for i := range r.eps {
		ep := &r.eps[i]
		if !ep.Ready && !ep.Disabled {
			return true
		}
	}
	return false
}

// Live counts the servable endpoints.
func (r *Route) Live() int {
	n := 0
	for i := range r.eps {
		if r.eps[i].servable() {
			n++
		}
	}
	return n
}

// find returns the endpoint at (board, region), or nil.
func (r *Route) find(board, region int) *Endpoint {
	for i := range r.eps {
		if r.eps[i].FPGA == board && r.eps[i].Region == region {
			return &r.eps[i]
		}
	}
	return nil
}

// Add appends an endpoint to the rotation.
func (r *Route) Add(board, region int, weight uint32, ready bool) {
	r.eps = append(r.eps, Endpoint{FPGA: board, Region: region, Weight: weight, Ready: ready})
}

// Remove drops the endpoint at (board, region) from the rotation.
func (r *Route) Remove(board, region int) {
	for i := range r.eps {
		if r.eps[i].FPGA == board && r.eps[i].Region == region {
			r.eps = append(r.eps[:i], r.eps[i+1:]...)
			r.cursor, r.credit = 0, 0
			return
		}
	}
}

// SetReady marks the endpoint's PR write complete (or not).
func (r *Route) SetReady(board, region int, ready bool) {
	if ep := r.find(board, region); ep != nil {
		ep.Ready = ready
	}
}

// SetWeight retunes the endpoint's round-robin share. An unchanged
// weight is a no-op: the health FSM restores DefaultWeight on every
// healthy batch, and resetting the round-robin credit there would pin
// Pick to the primary forever.
func (r *Route) SetWeight(board, region int, w uint32) {
	if ep := r.find(board, region); ep != nil && ep.Weight != w {
		ep.Weight = w
		r.credit = 0
	}
}

// Disable removes the endpoint from rotation, keeping its weight for a
// later Enable (quarantine → reload → re-enable).
func (r *Route) Disable(board, region int) {
	if ep := r.find(board, region); ep != nil {
		ep.Disabled = true
	}
}

// Enable returns a disabled endpoint to rotation.
func (r *Route) Enable(board, region int) {
	if ep := r.find(board, region); ep != nil {
		ep.Disabled = false
	}
}

// DisableBoard drops every endpoint on the board from rotation — the
// data path calls it when it observes the board shut down, so dead
// endpoints stop being picked immediately. Allocation-free.
//
//dhl:hotpath
func (r *Route) DisableBoard(board int) {
	for i := range r.eps {
		if r.eps[i].FPGA == board {
			r.eps[i].Disabled = true
		}
	}
}

// Primary returns the primary endpoint, or nil. The pointer is valid
// until the route's endpoints next change (Add, Remove). The health FSM
// reads it on every clean batch; a route holds a handful of endpoints
// and a cutover removes the old primary, so the scan is a step or two.
//
//dhl:hotpath
func (r *Route) Primary() *Endpoint {
	for i := range r.eps {
		if r.eps[i].Primary {
			return &r.eps[i]
		}
	}
	return nil
}

// MarkPrimary makes (board, region) the route's primary endpoint,
// clearing the flag elsewhere — the cutover edge of a migration or a
// replica promotion.
func (r *Route) MarkPrimary(board, region int) {
	for i := range r.eps {
		ep := &r.eps[i]
		ep.Primary = ep.FPGA == board && ep.Region == region
	}
}

// boardState is the scheduler's per-board bookkeeping.
type boardState struct {
	dev      *fpga.Device
	draining bool

	migratedIn  uint64
	migratedOut uint64
}

// Scheduler owns the fleet's board ledgers and placement decisions; it
// holds no per-route state. It is a pure decision layer: it never
// touches a device beyond reading its resource counters and shutdown
// flag, so internal/core can import it without a cycle and actuate its
// decisions.
type Scheduler struct {
	boards []boardState
}

// New builds a scheduler over the fleet's devices, in board-index order
// matching the runtime's attachment list.
func New(devices []*fpga.Device) *Scheduler {
	s := &Scheduler{boards: make([]boardState, len(devices))}
	for i, d := range devices {
		s.boards[i].dev = d
	}
	return s
}

// BoardHealthOf reports the board's lifecycle state (shutdown wins over
// draining: a lost board is lost).
func (s *Scheduler) BoardHealthOf(board int) BoardHealth {
	if board < 0 || board >= len(s.boards) {
		return 0
	}
	b := &s.boards[board]
	switch {
	case b.dev.IsShutdown():
		return BoardLost
	case b.draining:
		return BoardDraining
	default:
		return BoardAlive
	}
}

// SetDraining flips the board's draining flag: a draining board refuses
// new placements but keeps serving until Rebalance migrates its modules.
func (s *Scheduler) SetDraining(board int, draining bool) error {
	if board < 0 || board >= len(s.boards) {
		return fmt.Errorf("%w: %d of %d", ErrUnknownBoard, board, len(s.boards))
	}
	s.boards[board].draining = draining
	return nil
}

// canHost explains whether the board can take the module now: it must be
// alive, have a free region, and have the LUT/BRAM headroom. The error is
// the board's individual refusal for Place's aggregate diagnosis.
func (s *Scheduler) canHost(board int, spec fpga.ModuleSpec) error {
	b := &s.boards[board]
	switch {
	case b.dev.IsShutdown():
		return errors.New("board lost")
	case b.draining:
		return errors.New("board draining")
	}
	free := false
	for i := 0; i < b.dev.Regions(); i++ {
		r, err := b.dev.Region(i)
		if err == nil && r.State() == fpga.RegionEmpty {
			free = true
			break
		}
	}
	if !free {
		return fpga.ErrNoFreeRegion
	}
	if spec.LUTs > b.dev.AvailableLUTs() || spec.BRAM > b.dev.AvailableBRAM() {
		return &fpga.InsufficientError{
			Module:   spec.Name,
			NeedLUTs: spec.LUTs, NeedBRAM: spec.BRAM,
			HaveLUTs: b.dev.AvailableLUTs(), HaveBRAM: b.dev.AvailableBRAM(),
		}
	}
	return nil
}

// Place picks the board for a new module instance: first-fit over alive,
// non-draining boards, preferring the requesting NF's NUMA node (paper
// §IV-A2) before spilling to remote boards. exclude lists boards the
// caller has ruled out (a failed ICAP write, boards already hosting a
// replica of the same acc). On failure the error wraps ErrNoFit and
// carries every board's individual refusal, so a rejected placement is
// diagnosable from the error text alone.
func (s *Scheduler) Place(spec fpga.ModuleSpec, node int, exclude []int) (int, error) {
	if len(s.boards) == 0 {
		return -1, ErrNoBoards
	}
	var reasons []string
	for pass := 0; pass < 2; pass++ {
		for i := range s.boards {
			local := s.boards[i].dev.Node() == node
			if (pass == 0) != local {
				continue
			}
			if excluded(exclude, i) {
				reasons = append(reasons, fmt.Sprintf("board %d: excluded", i))
				continue
			}
			if err := s.canHost(i, spec); err != nil {
				reasons = append(reasons, fmt.Sprintf("board %d: %v", i, err))
				continue
			}
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s: %s", ErrNoFit, spec.Name, strings.Join(reasons, "; "))
}

func excluded(exclude []int, i int) bool {
	for _, x := range exclude {
		if x == i {
			return true
		}
	}
	return false
}

// NoteMigration records a completed cutover for the per-board counters.
func (s *Scheduler) NoteMigration(from, to int) {
	if from >= 0 && from < len(s.boards) {
		s.boards[from].migratedOut++
	}
	if to >= 0 && to < len(s.boards) {
		s.boards[to].migratedIn++
	}
}

// Migrations reports the board's cutover counters (for gauges).
func (s *Scheduler) Migrations(board int) (in, out uint64) {
	if board < 0 || board >= len(s.boards) {
		return 0, 0
	}
	return s.boards[board].migratedIn, s.boards[board].migratedOut
}

// EndpointInfo is one route endpoint in a fleet snapshot. Its JSON
// tags, and BoardInfo's, are placement.get's wire shape.
type EndpointInfo struct {
	Acc      uint16 `json:"acc_id"`
	HF       string `json:"hf"`
	Region   int    `json:"region"`
	Weight   uint32 `json:"weight"`
	Ready    bool   `json:"ready"`
	Disabled bool   `json:"disabled"`
	Primary  bool   `json:"primary"`
}

// BoardInfo is one board in a fleet snapshot.
type BoardInfo struct {
	Board       int            `json:"board"`
	DeviceID    int            `json:"device_id"`
	Node        int            `json:"node"`
	State       string         `json:"state"`
	FreeLUTs    int            `json:"free_luts"`
	FreeBRAM    int            `json:"free_bram"`
	FreeRegions int            `json:"free_regions"`
	MigratedIn  uint64         `json:"migrated_in"`
	MigratedOut uint64         `json:"migrated_out"`
	Endpoints   []EndpointInfo `json:"endpoints"`
}

// Snapshot renders the fleet for the control plane: per-board state,
// free resources, and every endpoint of routes routed there. Boards come
// in board order and each board's endpoints in routes' order (the
// runtime passes them by acc_id). Cold path.
func (s *Scheduler) Snapshot(routes []*Route) []BoardInfo {
	out := make([]BoardInfo, len(s.boards))
	for i := range s.boards {
		b := &s.boards[i]
		freeRegions := 0
		for ri := 0; ri < b.dev.Regions(); ri++ {
			if r, err := b.dev.Region(ri); err == nil && r.State() == fpga.RegionEmpty {
				freeRegions++
			}
		}
		out[i] = BoardInfo{
			Board:       i,
			DeviceID:    b.dev.ID(),
			Node:        b.dev.Node(),
			State:       s.BoardHealthOf(i).String(),
			FreeLUTs:    b.dev.AvailableLUTs(),
			FreeBRAM:    b.dev.AvailableBRAM(),
			FreeRegions: freeRegions,
			MigratedIn:  b.migratedIn,
			MigratedOut: b.migratedOut,
			Endpoints:   []EndpointInfo{},
		}
	}
	for _, r := range routes {
		for i := range r.eps {
			ep := &r.eps[i]
			if ep.FPGA < 0 || ep.FPGA >= len(out) {
				continue
			}
			out[ep.FPGA].Endpoints = append(out[ep.FPGA].Endpoints, EndpointInfo{
				Acc: r.acc, HF: r.hf, Region: ep.Region,
				Weight: ep.Weight, Ready: ep.Ready,
				Disabled: ep.Disabled, Primary: ep.Primary,
			})
		}
	}
	return out
}
