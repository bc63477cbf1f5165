// Package faultinject is the deterministic, seeded fault plan that drives
// chaos runs across the simulated DHL stack.
//
// A Plan is created once from a single uint64 seed plus a set of Specs
// (one per fault Kind) and is then shared — via each component's Config —
// by the PCIe DMA engines (internal/pcie), the FPGA devices
// (internal/fpga) and the transfer layer (internal/core). Every injection
// site calls Fire(kind) at the moment the corresponding real fault would
// strike; the Plan answers from a private splitmix64 stream so the exact
// same fault sequence replays from the same seed regardless of wall-clock
// time or goroutine scheduling (the simulation itself is single-threaded
// and deterministic, so draw order is stable too).
//
// The Plan also keeps per-kind injected counters, which the chaos tests
// reconcile against the detectors' observed counters: the soak invariant
// is injected == detected + tolerated for every kind.
package faultinject

import (
	"errors"
	"fmt"
	"strings"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// Kind enumerates the injectable fault types, grouped by the component
// that hosts the injection site.
type Kind int

// Fault kinds. DMA faults strike a posted transfer on the named channel;
// module faults strike a dispatched batch inside a reconfigurable region;
// RegionSEU flips configuration bits so the region garbles every batch
// until it is re-programmed; CompletionStall delays the hand-off from the
// C2H completion to the RX completion ring.
const (
	// DMAH2CError fails a host-to-card DMA post with ErrTransferFault.
	DMAH2CError Kind = iota
	// DMAH2CCorrupt delivers the H2C payload with a garbled record header.
	DMAH2CCorrupt
	// DMAH2CStall delays the H2C completion by the spec's Stall duration.
	DMAH2CStall
	// DMAC2HError fails a card-to-host DMA post with ErrTransferFault.
	DMAC2HError
	// DMAC2HCorrupt delivers the C2H payload with a garbled record header.
	DMAC2HCorrupt
	// DMAC2HStall delays the C2H completion by the spec's Stall duration.
	DMAC2HStall
	// ModuleError completes a dispatched batch with ErrModuleFault.
	ModuleError
	// ModuleGarbage lets the module run but garbles its output framing.
	ModuleGarbage
	// ModuleHang wedges the module: the batch's completion is withheld
	// until the region is reset or reloaded.
	ModuleHang
	// RegionSEU is a single-event upset in the region's configuration
	// memory: every subsequent batch is garbled until a PR reload.
	RegionSEU
	// CompletionStall delays a completed batch's enqueue onto the RX
	// completion ring.
	CompletionStall
	// BoardOffline kills the whole board — power loss or a fatal PCIe
	// link-down: the device shuts down, every region goes dark and all
	// subsequent operations fail until the fleet scheduler re-places the
	// board's modules elsewhere.
	BoardOffline
	// ICAPWedge wedges the configuration port: the PR load or reload that
	// drew it fails outright, forcing placement onto another board.
	ICAPWedge
	// PCIeLinkFlap is a transient link retrain: the posted DMA transfer
	// fails with ErrTransferFault but the channel recovers immediately,
	// so bounded retry absorbs it.
	PCIeLinkFlap

	// NumKinds is the number of fault kinds (for sizing tables).
	NumKinds
)

var kindNames = [NumKinds]string{
	"dma-h2c-error", "dma-h2c-corrupt", "dma-h2c-stall",
	"dma-c2h-error", "dma-c2h-corrupt", "dma-c2h-stall",
	"module-error", "module-garbage", "module-hang",
	"region-seu", "completion-stall",
	"board-offline", "icap-wedge", "pcie-link-flap",
}

// String names the kind for stats and tooling output.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Outcome reports what a fault draw did to an operation that proceeded
// (as opposed to failing outright with an error).
type Outcome uint8

// Outcome bits.
const (
	// Stalled: the operation's completion was delayed by the injected
	// stall (already folded into the returned completion time).
	Stalled Outcome = 1 << iota
	// Corrupted: the operation's payload must be garbled by the caller
	// (the DMA model moves sizes, not bytes, so the owner of the buffer
	// applies CorruptBatchHeader).
	Corrupted
)

// Spec arms one fault kind. EveryN and Prob compose: a draw fires when
// either trigger says so (EveryN == 1 fires every draw). Count bounds the
// total number of firings (0 = unlimited) so storms end and recovery can
// be measured. Stall is the injected delay for the stall kinds.
type Spec struct {
	// Kind selects which fault to inject.
	Kind Kind
	// EveryN fires the fault on every Nth draw (0 disables the trigger).
	EveryN uint64
	// Prob fires the fault on each draw with this probability [0, 1].
	Prob float64
	// Count caps the total number of firings; 0 means unlimited.
	Count uint64
	// Stall is the injected delay for the stall kinds.
	Stall eventsim.Time
}

// ErrBadSpec reports an invalid fault spec at plan construction.
var ErrBadSpec = errors.New("faultinject: bad fault spec")

type armedSpec struct {
	Spec
	armed    bool
	draws    uint64
	injected uint64
}

// Plan is a seeded fault schedule. A nil *Plan is valid and never fires,
// so every injection site can be guarded with a single nil check.
// Plans are not safe for concurrent use; the simulation is
// single-threaded by construction.
type Plan struct {
	seed  uint64
	state uint64
	specs [NumKinds]armedSpec
}

// NewPlan builds a plan from a seed and one spec per armed kind.
func NewPlan(seed uint64, specs ...Spec) (*Plan, error) {
	p := &Plan{seed: seed, state: seed}
	for _, s := range specs {
		if s.Kind < 0 || s.Kind >= NumKinds {
			return nil, fmt.Errorf("%w: unknown kind %d", ErrBadSpec, int(s.Kind))
		}
		if s.Prob < 0 || s.Prob > 1 {
			return nil, fmt.Errorf("%w: %s probability %v outside [0,1]", ErrBadSpec, s.Kind, s.Prob)
		}
		if s.EveryN == 0 && s.Prob == 0 {
			return nil, fmt.Errorf("%w: %s has no trigger (EveryN and Prob both zero)", ErrBadSpec, s.Kind)
		}
		if s.Stall < 0 {
			return nil, fmt.Errorf("%w: %s negative stall", ErrBadSpec, s.Kind)
		}
		if p.specs[s.Kind].armed {
			return nil, fmt.Errorf("%w: duplicate spec for %s", ErrBadSpec, s.Kind)
		}
		p.specs[s.Kind] = armedSpec{Spec: s, armed: true}
	}
	return p, nil
}

// next is splitmix64: tiny, allocation-free, and deterministic.
func (p *Plan) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fire draws the kind's trigger at an injection site and reports whether
// the fault strikes now. Nil-safe and allocation-free: this sits on the
// simulated hot path.
//
//dhl:hotpath
func (p *Plan) Fire(k Kind) bool {
	if p == nil || k < 0 || k >= NumKinds {
		return false
	}
	s := &p.specs[k]
	if !s.armed || (s.Count > 0 && s.injected >= s.Count) {
		return false
	}
	s.draws++
	fire := s.EveryN > 0 && s.draws%s.EveryN == 0
	if !fire && s.Prob > 0 {
		// 53-bit uniform in [0,1), the standard splitmix64 float recipe.
		fire = float64(p.next()>>11)/(1<<53) < s.Prob
	}
	if fire {
		s.injected++
	}
	return fire
}

// StallFor returns the injected delay for a stall kind that just fired.
//
//dhl:hotpath
func (p *Plan) StallFor(k Kind) eventsim.Time {
	if p == nil || k < 0 || k >= NumKinds {
		return 0
	}
	return p.specs[k].Stall
}

// Injected reports how many times the kind has fired so far.
//
//dhl:allow unreferenced core's fault-ledger test checks every counter against the plan
func (p *Plan) Injected(k Kind) uint64 {
	if p == nil || k < 0 || k >= NumKinds {
		return 0
	}
	return p.specs[k].injected
}

// Exhausted reports whether every armed, Count-bounded kind has fired its
// full budget — i.e. the storm is over and recovery can be measured.
// Kinds with Count == 0 never exhaust, so plans meant to end must bound
// every spec.
//
//dhl:allow unreferenced core's fault-ledger test runs until the plan is spent
func (p *Plan) Exhausted() bool {
	if p == nil {
		return true
	}
	for i := range p.specs {
		s := &p.specs[i]
		if s.armed && (s.Count == 0 || s.injected < s.Count) {
			return false
		}
	}
	return true
}

// String summarizes the plan for tooling output.
func (p *Plan) String() string {
	if p == nil {
		return "faultinject: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject: seed=%#x", p.seed)
	for i := range p.specs {
		s := &p.specs[i]
		if !s.armed {
			continue
		}
		fmt.Fprintf(&b, " %s[", Kind(i))
		sep := ""
		if s.EveryN > 0 {
			fmt.Fprintf(&b, "every=%d", s.EveryN)
			sep = ","
		}
		if s.Prob > 0 {
			fmt.Fprintf(&b, "%sp=%g", sep, s.Prob)
			sep = ","
		}
		if s.Count > 0 {
			fmt.Fprintf(&b, "%smax=%d", sep, s.Count)
		}
		fmt.Fprintf(&b, " fired=%d]", s.injected)
	}
	return b.String()
}

// CorruptBatchHeader garbles the leading dhlproto record header in place
// so downstream framing validation (the Distributor's cursor, a module's
// decode pass) detects the damage instead of mis-delivering: an all-ones
// length field always overruns any batch the arena can hold. This is the
// shared corruption mechanic for the Corrupted outcome, ModuleGarbage and
// RegionSEU — the DMA and region models move sizes, not payload bytes, so
// the buffer's owner applies the damage deterministically.
//
//dhl:hotpath
func CorruptBatchHeader(b []byte) {
	n := dhlproto.RecordOverhead
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		b[i] = 0xFF
	}
}
