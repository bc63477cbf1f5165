package core

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/placement"
)

// Health is the per-accelerator health state, driven by a
// consecutive-failure policy over batch outcomes:
//
//	Healthy --degradeAfter fails--> Degraded --quarantineAfter fails--> Quarantined
//	   ^___________any success___________/                                  |
//	   \________________PR reload completes + config replayed______________/
//
// A quarantined accelerator receives no FPGA traffic: the Packer reroutes
// its batches to the registered software fallback (or delivers them
// unprocessed), while the runtime re-programs the region through ICAP in
// the background and replays the recorded configuration. Every runtime
// runs the FSM, fault plan or not.
type Health int

// Health states.
const (
	// HealthHealthy: batches flow to the accelerator normally.
	HealthHealthy Health = iota + 1
	// HealthDegraded: consecutive failures crossed degradeAfter; traffic
	// still flows but one more streak quarantines.
	HealthDegraded
	// HealthQuarantined: traffic is rerouted and a background PR reload
	// is (or has been) attempted.
	HealthQuarantined
)

// The FSM's thresholds, in consecutive failed batches. degradeAfter is 2
// so a single failed batch — what one injected transient looks like —
// sheds no load; quarantineAfter is 5 so a degraded accelerator gets
// three more batches to heal by a clean one (which costs nothing) before
// its region is reloaded (which costs milliseconds of ICAP time).
const (
	degradeAfter    = 2
	quarantineAfter = 5
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// MarshalText renders the state by name, so it travels as "healthy" in
// JSON rather than as the FSM's integer.
func (h Health) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText is MarshalText's inverse.
func (h *Health) UnmarshalText(text []byte) error {
	for s := HealthHealthy; s <= HealthQuarantined; s++ {
		if s.String() == string(text) {
			*h = s
			return nil
		}
	}
	return fmt.Errorf("core: unknown health state %q", text)
}

// HealthReport is an accelerator's health snapshot for AccHealth; the
// JSON tags are health.get's wire shape.
type HealthReport struct {
	Health           Health `json:"health"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	// Faults is the lifetime count of batch failures attributed to this
	// accelerator (DMA give-ups, dispatch/module errors, corrupt
	// responses, watchdog timeouts).
	Faults      uint64 `json:"faults"`
	Quarantines uint64 `json:"quarantines"`
	// Reloads counts completed recovery PR re-programs.
	Reloads uint64 `json:"reloads"`
	// Reloading reports a recovery PR currently in flight.
	Reloading bool `json:"reloading"`
	// FallbackActive reports a registered software fallback currently
	// carrying the accelerator's traffic.
	FallbackActive bool `json:"fallback_active"`
}

// AccHealth reports an accelerator's health state and fault counters.
func (r *Runtime) AccHealth(acc AccID) (HealthReport, error) {
	e, err := r.acc(acc)
	if err != nil {
		return HealthReport{}, err
	}
	return HealthReport{
		Health:           e.health,
		ConsecutiveFails: e.consecFails,
		Faults:           e.faults,
		Quarantines:      e.quarantines,
		Reloads:          e.reloads,
		Reloading:        e.reloading,
		FallbackActive:   e.health == HealthQuarantined && e.fallback != nil,
	}, nil
}

// noteFault records one failed batch against the accelerator and advances
// the health FSM. Cheap and allocation-free when already quarantined —
// it sits on the failure edges of the hot chain. The
// quarantine guard doubles as the reentrancy break: quarantining flushes
// hung batches, whose failures land back here without recursing.
//
//dhl:hotpath
func (r *Runtime) noteFault(e *hfEntry) {
	if e == nil {
		return
	}
	e.faults++
	if e.health == HealthQuarantined {
		return
	}
	e.consecFails++
	if e.consecFails >= quarantineAfter {
		r.quarantine(e)
	} else if e.consecFails >= degradeAfter {
		if r.tel != nil && e.health != HealthDegraded {
			r.tel.Health.Degraded.Inc()
		}
		e.health = HealthDegraded
		// Shed load: when replicas exist, shrink the struggling primary's
		// share of the weighted round-robin instead of waiting for
		// quarantine to take it out entirely.
		if e.route.Live() > 1 {
			p := e.route.Primary()
			e.route.SetWeight(p.FPGA, p.Region, placement.ShedWeight)
		}
	}
}

// noteSuccess records one cleanly distributed batch: any non-quarantined
// accelerator heals back to Healthy.
//
//dhl:hotpath
func (r *Runtime) noteSuccess(e *hfEntry) {
	if e == nil || e.health == HealthQuarantined {
		return
	}
	r.heal(e)
}

// heal returns the accelerator to Healthy with a clean streak and its
// primary endpoint to its full share of the rotation: what a clean batch,
// a completed reload and a cutover to fresh silicon all end in (the
// faults that condemned an old placement say nothing about the new one,
// whose endpoint already has DefaultWeight).
//
//dhl:hotpath
func (r *Runtime) heal(e *hfEntry) {
	if r.tel != nil && e.health != HealthHealthy {
		r.tel.Health.Recovered.Inc()
	}
	e.consecFails = 0
	e.health = HealthHealthy
	p := e.route.Primary()
	e.route.SetWeight(p.FPGA, p.Region, placement.DefaultWeight)
}

// quarantine moves the accelerator to Quarantined and starts the
// background recovery: a PR reload of its region through ICAP. Cold path;
// the closure allocation is fine here.
func (r *Runtime) quarantine(e *hfEntry) {
	if r.tel != nil && e.health != HealthQuarantined {
		r.tel.Health.Quarantined.Inc()
	}
	e.health = HealthQuarantined
	e.quarantines++
	// Take the primary endpoint out of the rotation; replicas (if any)
	// absorb its share, otherwise Pick returns nil and the Packer falls
	// back to software or unprocessed delivery.
	p := e.route.Primary()
	e.route.Disable(p.FPGA, p.Region)
	if e.reloading {
		return
	}
	e.reloading = true
	if err := r.boards[p.FPGA].dev.Reload(p.Region, func() { r.reloaded(e) }); err != nil {
		// Device gone or region unusable: the board cannot recover this
		// placement. Try to move off it — promote a warm replica or
		// re-place on another board. If neither works, stay quarantined
		// for good; the fallback (or unprocessed delivery) carries the
		// traffic. Reload flushed nothing, so there is nothing to leak.
		e.reloading = false
		_ = r.migrateOff(e)
	}
}

// reloaded completes a recovery: replay the recorded configuration into
// the fresh module instance and return the accelerator to service.
func (r *Runtime) reloaded(e *hfEntry) {
	e.reloading = false
	e.reloads++
	p := e.route.Primary()
	e.replay(r.boards[p.FPGA].dev, p.Region)
	r.heal(e)
	e.route.Enable(p.FPGA, p.Region)
}

// forceRecover is the watchdog's hard-deadline action against an
// accelerator holding batches past any reasonable completion time:
// quarantine it (which reloads the region, flushing withheld
// completions), or — if quarantine already failed to reload — reset the
// region directly so parked batches still flush.
func (r *Runtime) forceRecover(e *hfEntry) {
	if e == nil {
		return
	}
	if e.health != HealthQuarantined {
		e.faults++
		r.quarantine(e)
		return
	}
	if !e.reloading {
		p := e.route.Primary()
		_ = r.boards[p.FPGA].dev.ResetRegion(p.Region)
	}
}
