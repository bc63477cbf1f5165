package fpga

import (
	"errors"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
)

// faultRig loads one echo module on a device wired to plan.
func faultRig(t *testing.T, plan *faultinject.Plan) (*eventsim.Sim, *Device, int) {
	t.Helper()
	sim := eventsim.New()
	d, err := NewDevice(sim, Config{Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaults(plan)
	idx, err := d.LoadPR(testSpec("m", 100, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	return sim, d, idx
}

func TestDispatchInjectedModuleError(t *testing.T) {
	plan := mustPlan(t, 3, faultinject.Spec{Kind: faultinject.ModuleError, EveryN: 2})
	sim, d, idx := faultRig(t, plan)
	var errs []error
	for i := 0; i < 4; i++ {
		if _, err := d.Dispatch(idx, []byte("abcd"), nil, func(_ []byte, e error) { errs = append(errs, e) }); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunAll()
	var faults int
	for _, e := range errs {
		if errors.Is(e, ErrModuleFault) {
			faults++
		}
	}
	if faults != 2 || len(errs) != 4 {
		t.Errorf("%d faults in %d completions, want 2 in 4", faults, len(errs))
	}
	if d.FaultCounters().ModuleErrors != plan.Injected(faultinject.ModuleError) {
		t.Error("observed != injected")
	}
}

func TestDispatchInjectedGarbage(t *testing.T) {
	plan := mustPlan(t, 3, faultinject.Spec{Kind: faultinject.ModuleGarbage, EveryN: 1, Count: 1})
	sim, d, idx := faultRig(t, plan)
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, []byte("payload"))
	var out []byte
	if _, err := d.Dispatch(idx, batch, nil, func(o []byte, e error) { out = o }); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	var c dhlproto.Cursor
	c.SetBatch(out)
	var rec dhlproto.Record
	if _, err := c.Next(&rec); !errors.Is(err, dhlproto.ErrCorrupt) {
		t.Errorf("garbled output decoded cleanly: %v", err)
	}
	if d.FaultCounters().GarbageBatches != 1 {
		t.Errorf("garbage count %d", d.FaultCounters().GarbageBatches)
	}
}

func TestDispatchHangParksUntilReset(t *testing.T) {
	plan := mustPlan(t, 3, faultinject.Spec{Kind: faultinject.ModuleHang, EveryN: 1, Count: 1})
	sim, d, idx := faultRig(t, plan)
	var hangErr error
	completions := 0
	if _, err := d.Dispatch(idx, []byte("x"), nil, func(_ []byte, e error) { completions++; hangErr = e }); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if completions != 0 {
		t.Fatal("hung batch completed without a reset")
	}
	r, _ := d.Region(idx)
	if len(r.hung) != 1 {
		t.Fatalf("hung %d", len(r.hung))
	}
	if err := d.ResetRegion(idx); err != nil {
		t.Fatal(err)
	}
	if completions != 1 || !errors.Is(hangErr, ErrModuleHang) {
		t.Errorf("flush: %d completions, err %v", completions, hangErr)
	}
	if d.FaultCounters().HungFlushed != d.FaultCounters().Hangs {
		t.Error("flushed != hangs after reset")
	}
	// The region keeps working after the soft reset.
	ok := false
	if _, err := d.Dispatch(idx, []byte("y"), nil, func(_ []byte, e error) { ok = e == nil }); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if !ok {
		t.Error("region dead after reset")
	}
}

func TestRegionSEUGarblesUntilReload(t *testing.T) {
	plan := mustPlan(t, 3, faultinject.Spec{Kind: faultinject.RegionSEU, EveryN: 1, Count: 1})
	sim, d, idx := faultRig(t, plan)
	garbled := func() bool {
		batch, _ := dhlproto.AppendRecord(nil, 1, 1, []byte("payload"))
		var out []byte
		if _, err := d.Dispatch(idx, batch, nil, func(o []byte, e error) { out = o }); err != nil {
			t.Fatal(err)
		}
		sim.RunAll()
		var c dhlproto.Cursor
		c.SetBatch(out)
		var rec dhlproto.Record
		_, err := c.Next(&rec)
		return err != nil
	}
	// Every batch through the upset region is damaged, including ones
	// after the SEU spec's Count is exhausted — the corruption persists.
	if !garbled() || !garbled() {
		t.Fatal("SEU did not garble output")
	}
	r, _ := d.Region(idx)
	if !r.seu {
		t.Fatal("SEU flag not set")
	}
	reloaded := false
	if err := d.Reload(idx, func() { reloaded = true }); err != nil {
		t.Fatal(err)
	}
	// Mid-reload the region refuses work.
	if _, err := d.Dispatch(idx, []byte("x"), nil, nil); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("dispatch mid-reload: %v", err)
	}
	sim.RunAll()
	if !reloaded {
		t.Fatal("reload never completed")
	}
	if r.seu {
		t.Error("reload did not clear the SEU")
	}
	if garbled() {
		t.Error("region still garbling after reload")
	}
	if d.Reloads() != 1 {
		t.Errorf("reloads %d", d.Reloads())
	}
}

func TestReloadStateChecks(t *testing.T) {
	sim := eventsim.New()
	d, _ := NewDevice(sim, Config{Regions: 2})
	if err := d.Reload(0, nil); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("empty region: %v", err)
	}
	idx, _ := d.LoadPR(testSpec("m", 100, 1), nil)
	if err := d.Reload(idx, nil); !errors.Is(err, ErrReconfiguring) {
		t.Errorf("mid-PR: %v", err)
	}
	if err := d.Reload(99, nil); err == nil {
		t.Error("out-of-range region accepted")
	}
}

func TestShutdownRefusesWorkAndFlushesHung(t *testing.T) {
	plan := mustPlan(t, 3, faultinject.Spec{Kind: faultinject.ModuleHang, EveryN: 1, Count: 1})
	sim, d, idx := faultRig(t, plan)
	var hangErr error
	if _, err := d.Dispatch(idx, []byte("x"), nil, func(_ []byte, e error) { hangErr = e }); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	d.Shutdown()
	d.Shutdown() // idempotent
	if !d.IsShutdown() {
		t.Fatal("not shut down")
	}
	if !errors.Is(hangErr, ErrModuleHang) {
		t.Errorf("hung batch not flushed on shutdown: %v", hangErr)
	}
	if _, err := d.Dispatch(idx, []byte("x"), nil, nil); !errors.Is(err, ErrDeviceShutdown) {
		t.Errorf("dispatch: %v", err)
	}
	if _, err := d.LoadPR(testSpec("n", 100, 1), nil); !errors.Is(err, ErrDeviceShutdown) {
		t.Errorf("loadpr: %v", err)
	}
	if err := d.Reload(idx, nil); !errors.Is(err, ErrDeviceShutdown) {
		t.Errorf("reload: %v", err)
	}
	if err := d.Configure(idx, nil); !errors.Is(err, ErrDeviceShutdown) {
		t.Errorf("configure: %v", err)
	}
	if err := d.Unload(idx); !errors.Is(err, ErrDeviceShutdown) {
		t.Errorf("unload: %v", err)
	}
}

func TestShutdownMidReconfigurationAbandonsPR(t *testing.T) {
	sim := eventsim.New()
	d, _ := NewDevice(sim, Config{Regions: 2})
	called := false
	idx, err := d.LoadPR(testSpec("m", 100, 1), func(int) { called = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Shutdown()
	sim.RunAll()
	if called {
		t.Error("PR completion ran on a dead device")
	}
	r, _ := d.Region(idx)
	if r.State() != RegionReconfiguring {
		t.Errorf("region state %v, want inert reconfiguring", r.State())
	}
}

func TestShutdownMidReloadAbandonsPR(t *testing.T) {
	sim := eventsim.New()
	d, _ := NewDevice(sim, Config{Regions: 2})
	idx, _ := d.LoadPR(testSpec("m", 100, 1), nil)
	sim.RunAll()
	called := false
	if err := d.Reload(idx, func() { called = true }); err != nil {
		t.Fatal(err)
	}
	d.Shutdown()
	sim.RunAll()
	if called {
		t.Error("reload completion ran on a dead device")
	}
}

// mustPlan builds a fault plan from known-good specs.
func mustPlan(t testing.TB, seed uint64, specs ...faultinject.Spec) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.NewPlan(seed, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
