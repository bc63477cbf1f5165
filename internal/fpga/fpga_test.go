package fpga

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// echoModule is a minimal test module that records configuration and
// uppercases payload bytes so processing is observable.
type echoModule struct {
	configured []byte
	fail       bool
}

func (m *echoModule) Configure(p []byte) error {
	m.configured = append([]byte(nil), p...)
	return nil
}

func (m *echoModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	if m.fail {
		return dst, errors.New("echo: induced failure")
	}
	return append(dst, bytes.ToUpper(in)...), nil
}

func testSpec(name string, luts, bram int) ModuleSpec {
	return ModuleSpec{
		Name:           name,
		LUTs:           luts,
		BRAM:           bram,
		ThroughputBps:  10e9,
		DelayCycles:    100,
		BitstreamBytes: 1024 * 1024,
		New:            func() Module { return &echoModule{} },
	}
}

func newDevice(t *testing.T, cfg Config) (*eventsim.Sim, *Device) {
	t.Helper()
	sim := eventsim.New()
	d, err := NewDevice(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, d
}

func TestDeviceDefaults(t *testing.T) {
	_, d := newDevice(t, Config{ID: 3, Node: 1})
	if d.ID() != 3 || d.Node() != 1 || d.Regions() != 8 {
		t.Errorf("device identity: %d %d %d", d.ID(), d.Node(), d.Regions())
	}
	if d.AvailableLUTs() != perf.FPGATotalLUTs-perf.StaticRegionLUTs {
		t.Errorf("available LUTs %d", d.AvailableLUTs())
	}
	if d.AvailableBRAM() != perf.FPGATotalBRAM-perf.StaticRegionBRAM {
		t.Errorf("available BRAM %d", d.AvailableBRAM())
	}
}

// A negative floorplan size is refused, not handed to make.
func TestNewDeviceRefusesNegativeRegions(t *testing.T) {
	if d, err := NewDevice(eventsim.New(), Config{Regions: -1}); err == nil {
		t.Errorf("Regions -1 accepted: %d regions", d.Regions())
	}
}

func TestLoadPRLifecycle(t *testing.T) {
	sim, d := newDevice(t, Config{})
	var doneRegion = -1
	idx, err := d.LoadPR(testSpec("mod", 1000, 10), func(r int) { doneRegion = r })
	if err != nil {
		t.Fatal(err)
	}
	r, _ := d.Region(idx)
	if r.State() != RegionReconfiguring {
		t.Errorf("state during PR: %v", r.State())
	}
	// Dispatch during reconfiguration must fail.
	if _, err := d.Dispatch(idx, []byte("x"), nil, nil); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("dispatch during PR: %v", err)
	}
	start := sim.Now()
	sim.RunAll()
	if doneRegion != idx {
		t.Errorf("done callback region %d", doneRegion)
	}
	if r.State() != RegionLoaded {
		t.Errorf("state after PR: %v", r.State())
	}
	elapsed := sim.Now() - start
	if want := d.PRTime(1024 * 1024); elapsed != want {
		t.Errorf("PR took %v, want %v", elapsed, want)
	}
}

func TestPRTimeProportional(t *testing.T) {
	_, d := newDevice(t, Config{})
	small := d.PRTime(perf.IPsecCryptoBitstreamBytes)
	big := d.PRTime(perf.PatternMatchingBitstreamBytes)
	if small >= big {
		t.Errorf("PR time not proportional: %v vs %v", small, big)
	}
	// Table V band: tens of milliseconds.
	if small < 20*eventsim.Millisecond || big > 40*eventsim.Millisecond {
		t.Errorf("PR times out of band: %v / %v", small, big)
	}
}

func TestResourceAccountingAndPacking(t *testing.T) {
	sim, d := newDevice(t, Config{Regions: 16})
	spec := ModuleSpec{
		Name: "ipsec-like", LUTs: perf.IPsecCryptoLUTs, BRAM: perf.IPsecCryptoBRAM,
		ThroughputBps: 1e9, DelayCycles: 1, BitstreamBytes: 1, New: func() Module { return &echoModule{} },
	}
	n := 0
	for {
		_, err := d.LoadPR(spec, nil)
		if err != nil {
			if !errors.Is(err, ErrInsufficient) {
				t.Fatalf("unexpected: %v", err)
			}
			break
		}
		n++
	}
	if n != 5 {
		t.Errorf("packed %d ipsec-like modules, paper says 5", n)
	}
	sim.RunAll()
	// Unload one and verify resources return.
	before := d.AvailableBRAM()
	if err := d.Unload(0); err != nil {
		t.Fatal(err)
	}
	if d.AvailableBRAM() != before+perf.IPsecCryptoBRAM {
		t.Error("BRAM not returned on unload")
	}
	if _, err := d.LoadPR(spec, nil); err != nil {
		t.Errorf("reload into freed region: %v", err)
	}
}

func TestNoFreeRegion(t *testing.T) {
	sim, d := newDevice(t, Config{Regions: 1})
	if _, err := d.LoadPR(testSpec("a", 100, 1), nil); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if _, err := d.LoadPR(testSpec("b", 100, 1), nil); !errors.Is(err, ErrNoFreeRegion) {
		t.Errorf("no free region: %v", err)
	}
}

func TestUnloadStates(t *testing.T) {
	sim, d := newDevice(t, Config{})
	idx, _ := d.LoadPR(testSpec("m", 100, 1), nil)
	if err := d.Unload(idx); !errors.Is(err, ErrReconfiguring) {
		t.Errorf("unload during PR: %v", err)
	}
	sim.RunAll()
	if err := d.Unload(idx); err != nil {
		t.Fatal(err)
	}
	if err := d.Unload(idx); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("double unload: %v", err)
	}
	if err := d.Unload(99); err == nil {
		t.Error("out-of-range unload accepted")
	}
}

func TestBadSpecRejected(t *testing.T) {
	_, d := newDevice(t, Config{})
	bad := testSpec("", 100, 1)
	if _, err := d.LoadPR(bad, nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty name: %v", err)
	}
	bad2 := testSpec("x", 100, 1)
	bad2.New = nil
	if _, err := d.LoadPR(bad2, nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("nil factory: %v", err)
	}
}

func TestConfigureRouting(t *testing.T) {
	sim, d := newDevice(t, Config{})
	idx, _ := d.LoadPR(testSpec("m", 100, 1), nil)
	if err := d.Configure(idx, []byte("early")); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("configure during PR: %v", err)
	}
	sim.RunAll()
	if err := d.Configure(idx, []byte("params")); err != nil {
		t.Fatal(err)
	}
	r, _ := d.Region(idx)
	mod, ok := r.module.(*echoModule)
	if !ok || string(mod.configured) != "params" {
		t.Error("configuration did not reach the module")
	}
}

func TestDispatchFunctionalAndTemporal(t *testing.T) {
	sim, d := newDevice(t, Config{})
	idx, _ := d.LoadPR(testSpec("m", 100, 1), nil)
	sim.RunAll()
	start := sim.Now()
	var out []byte
	var doneAt eventsim.Time
	complete, err := d.Dispatch(idx, []byte("hello"), nil, func(o []byte, e error) {
		out = o
		doneAt = sim.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if string(out) != "HELLO" {
		t.Errorf("module output %q", out)
	}
	if doneAt != complete {
		t.Errorf("completion at %v, scheduled %v", doneAt, complete)
	}
	// Latency = serialization (5B at 10 Gbps = 4ns) + 100 cycles @250MHz.
	wantDelay := eventsim.Time(100.0/perf.FPGAClockHz*1e12) + eventsim.Time(5*8.0/10e9*1e12)
	if got := doneAt - start; got != wantDelay {
		t.Errorf("dispatch latency %v, want %v", got, wantDelay)
	}
	b, bytesN, busy, serr := d.RegionStats(idx)
	if serr != nil || b != 1 || bytesN != 5 || busy <= 0 {
		t.Errorf("region stats %d %d %v %v", b, bytesN, busy, serr)
	}
}

func TestDispatchSerializesAtModuleRate(t *testing.T) {
	sim, d := newDevice(t, Config{})
	idx, _ := d.LoadPR(testSpec("m", 100, 1), nil)
	sim.RunAll()
	payload := make([]byte, 1000)
	var times []eventsim.Time
	for i := 0; i < 3; i++ {
		_, err := d.Dispatch(idx, payload, nil, func([]byte, error) { times = append(times, sim.Now()) })
		if err != nil {
			t.Fatal(err)
		}
	}
	sim.RunAll()
	occ := eventsim.Time(1000 * 8.0 / 10e9 * 1e12)
	if times[1]-times[0] != occ || times[2]-times[1] != occ {
		t.Errorf("module serialization gaps %v %v, want %v", times[1]-times[0], times[2]-times[1], occ)
	}
}

func TestDispatchModuleError(t *testing.T) {
	sim := eventsim.New()
	d, _ := NewDevice(sim, Config{})
	spec := testSpec("failing", 100, 1)
	spec.New = func() Module { return &echoModule{fail: true} }
	idx, _ := d.LoadPR(spec, nil)
	sim.RunAll()
	var gotErr error
	if _, err := d.Dispatch(idx, []byte("x"), nil, func(_ []byte, e error) { gotErr = e }); err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if gotErr == nil {
		t.Error("module error not propagated")
	}
	if d.dropped != 1 {
		t.Errorf("dropped counter %d", d.dropped)
	}
}

func TestFloorplanRendering(t *testing.T) {
	sim, d := newDevice(t, Config{})
	_, _ = d.LoadPR(testSpec("visible-module", 100, 1), nil)
	sim.RunAll()
	fp := d.Floorplan()
	if !strings.Contains(fp, "visible-module") || !strings.Contains(fp, "static region") {
		t.Errorf("floorplan missing content:\n%s", fp)
	}
}

func TestUtilizationPercentages(t *testing.T) {
	sim, d := newDevice(t, Config{})
	// Static region alone: Table VI reports 31.43% LUTs / 5.64% BRAM.
	if got := 100 * d.UtilizationLUTs(); got < 31.3 || got > 31.6 {
		t.Errorf("static LUT%% %.2f", got)
	}
	if got := 100 * d.UtilizationBRAM(); got < 5.5 || got > 5.8 {
		t.Errorf("static BRAM%% %.2f", got)
	}
	sim.RunAll()
}
