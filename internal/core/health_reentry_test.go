package core

import (
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// TestHealthFSMReentry walks an accelerator around the full health cycle
// twice — healthy → degraded → quarantined → reloaded → healthy →
// quarantined again — and pins the telemetry transition counters to
// exactly one increment per edge per lap. A sticky state or a re-entrant
// transition would double-count.
func TestHealthFSMReentry(t *testing.T) {
	tel := telemetry.New(16)
	r := newRig(t, Config{
		FlushTimeout: 5 * eventsim.Microsecond,
		Telemetry:    tel,
	}, revSpec())
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]

	lap := func(n int) {
		t.Helper()
		// Five consecutive faults: 2 to degrade, 5 to quarantine
		// (DegradeAfter/QuarantineAfter defaults).
		for i := 0; i < 5; i++ {
			r.rt.noteFault(e)
		}
		if e.health != HealthQuarantined {
			t.Fatalf("lap %d: health %v after 5 faults, want quarantined", n, e.health)
		}
		if ep := e.route.Primary(); ep == nil || !ep.Disabled {
			t.Fatalf("lap %d: quarantine left the primary in rotation: %+v", n, ep)
		}
		// Extra faults while quarantined must not re-count transitions.
		r.rt.noteFault(e)
		r.rt.noteFault(e)
		r.settle() // PR reload (~5.2ms) completes
		if e.health != HealthHealthy {
			t.Fatalf("lap %d: health %v after reload, want healthy", n, e.health)
		}
		if e.reloading {
			t.Fatalf("lap %d: reloading flag stuck", n)
		}
		if ep := e.route.Primary(); ep == nil || ep.Disabled || ep.Weight != placement.DefaultWeight {
			t.Fatalf("lap %d: reload did not restore the primary endpoint: %+v", n, ep)
		}
		snap := tel.Snapshot()
		want := uint64(n)
		if snap.Health.Degraded != want || snap.Health.Quarantined != want || snap.Health.Recovered != want {
			t.Fatalf("lap %d: transitions degraded/quarantined/recovered = %d/%d/%d, want %d each",
				n, snap.Health.Degraded, snap.Health.Quarantined, snap.Health.Recovered, want)
		}
		h, herr := r.rt.AccHealth(acc)
		if herr != nil {
			t.Fatal(herr)
		}
		if h.Quarantines != uint64(n) || h.Reloads != uint64(n) {
			t.Fatalf("lap %d: quarantines=%d reloads=%d, want %d each", n, h.Quarantines, h.Reloads, n)
		}
	}
	lap(1)
	lap(2)

	// A degraded accelerator that heals (success before the quarantine
	// threshold) counts one Degraded edge and one Recovered edge, no
	// quarantine.
	r.rt.noteFault(e)
	r.rt.noteFault(e)
	if e.health != HealthDegraded {
		t.Fatalf("health %v after 2 faults, want degraded", e.health)
	}
	r.rt.noteSuccess(e)
	if e.health != HealthHealthy {
		t.Fatalf("health %v after success, want healthy", e.health)
	}
	snap := tel.Snapshot()
	if snap.Health.Degraded != 3 || snap.Health.Quarantined != 2 || snap.Health.Recovered != 3 {
		t.Fatalf("final transitions degraded/quarantined/recovered = %d/%d/%d, want 3/2/3",
			snap.Health.Degraded, snap.Health.Quarantined, snap.Health.Recovered)
	}
}
