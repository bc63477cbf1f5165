package dhl_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// TestFacadeSurface pins the public surface so it cannot grow back: a
// System is the paper's eight Table II calls, what drives and observes
// the simulation, Serve and Control; everything else is Control's. The
// config is the three settings a caller sets.
func TestFacadeSurface(t *testing.T) {
	sysT := reflect.TypeFor[*dhl.System]()
	var methods []string
	for i := 0; i < sysT.NumMethod(); i++ {
		methods = append(methods, sysT.Method(i).Name)
	}
	wantMethods := []string{
		// Table II.
		"Register", "SearchByName", "LoadPR", "AccConfigure",
		"SharedIBQ", "PrivateOBQ", "SendPackets", "ReceivePackets",
		// Driving and observing the simulation.
		"Sim", "Pool", "Runtime", "Settle", "Snapshot", "Stats",
		// Operations.
		"Serve", "Control",
	}
	slices.Sort(wantMethods)
	if !slices.Equal(methods, wantMethods) {
		t.Errorf("*System methods = %v, want %v", methods, wantMethods)
	}

	cfgT := reflect.TypeFor[dhl.SystemConfig]()
	var fields []string
	for i := 0; i < cfgT.NumField(); i++ {
		fields = append(fields, cfgT.Field(i).Name)
	}
	if want := []string{"Nodes", "FPGAsPerNode", "Telemetry"}; !slices.Equal(fields, want) {
		t.Errorf("SystemConfig fields = %v, want %v", fields, want)
	}
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sys.Control().PlacementTable()); n != 1 {
		t.Errorf("boards %d", n)
	}
	if _, err := sys.Control().Device(0); err != nil {
		t.Errorf("device 0: %v", err)
	}
	if _, err := sys.Control().Device(5); err == nil {
		t.Error("bad device index accepted")
	}
	if sys.Sim() == nil || sys.Pool() == nil || sys.Runtime() == nil {
		t.Error("accessors returned nil")
	}
	// Stock database registered.
	for _, name := range []string{dhl.IPsecCrypto, dhl.PatternMatching, dhl.Loopback} {
		if _, err := sys.SearchByName(name, 0); err != nil {
			t.Errorf("stock module %q: %v", name, err)
		}
	}
}

// TestModuleDBOrder: the database is a map, and what Control().ModuleDB hands
// out must not show it: the four stock names, sorted, on every call.
func TestModuleDBOrder(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{dhl.IPsecCrypto, dhl.IPsecDecrypt, dhl.Loopback, dhl.PatternMatching}
	for i := 0; i < 32; i++ {
		if got := sys.Control().ModuleDB(); !slices.Equal(got, want) {
			t.Fatalf("call %d: ModuleDB() = %v, want %v", i, got, want)
		}
	}
}

// TestSetupBytesOpen pins the heap a system takes before its first packet,
// the way an NF developer brings one up: Open, Register, SearchByName,
// Settle. It was 37.5 MB while the default pool cleared all 16 384 buffers
// up front; a pool now backs its first 1 024 and the rest on first overflow.
// TotalAlloc is the process's, so the gate reads the least of a few
// bring-ups: each does the same work, and another goroutine's allocations
// can only add to one.
func TestSetupBytesOpen(t *testing.T) {
	got := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Register("setup", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SearchByName(dhl.Loopback, 0); err != nil {
			t.Fatal(err)
		}
		sys.Settle()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Open to Settle allocated %.1f MB", float64(got)/1e6)
	if got >= 6e6 {
		t.Errorf("Open to Settle allocated %.1f MB, want < 6 MB", float64(got)/1e6)
	}
}

func TestSystemMultiNodeMultiFPGA(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{Nodes: 2, FPGAsPerNode: 2}, dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sys.Control().PlacementTable()); n != 4 {
		t.Errorf("boards %d", n)
	}
	// Each node resolves its own accelerator instance.
	a0, err := sys.SearchByName(dhl.IPsecCrypto, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := sys.SearchByName(dhl.IPsecCrypto, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a0 == a1 {
		t.Error("nodes share one acc entry; hardware function table keys on (hf_name, socket_id)")
	}
	if _, err := sys.SharedIBQ(1); err != nil {
		t.Errorf("node 1 IBQ: %v", err)
	}
}

func TestSystemTableIIRoundTrip(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	nfID, err := sys.Register("api-test", 0)
	if err != nil {
		t.Fatal(err)
	}
	accID, err := sys.SearchByName(dhl.Loopback, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AccConfigure(accID, nil); err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	if _, err := sys.SharedIBQ(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PrivateOBQ(nfID); err != nil {
		t.Fatal(err)
	}

	pkts := make([]*dhl.Packet, 4)
	for i := range pkts {
		m, aerr := sys.Pool().Alloc()
		if aerr != nil {
			t.Fatal(aerr)
		}
		if aerr := m.AppendBytes([]byte{byte(i), 0xAB}); aerr != nil {
			t.Fatal(aerr)
		}
		m.AccID = uint16(accID)
		pkts[i] = m
	}
	n, err := sys.SendPackets(nfID, pkts)
	if err != nil || n != 4 {
		t.Fatalf("send %d %v", n, err)
	}
	sys.Sim().Run(sys.Sim().Now() + 100*eventsim.Microsecond)
	out := make([]*dhl.Packet, 8)
	got, err := sys.ReceivePackets(nfID, out)
	if err != nil || got != 4 {
		t.Fatalf("receive %d %v", got, err)
	}
	for i := 0; i < got; i++ {
		if !bytes.Equal(out[i].Data(), []byte{byte(i), 0xAB}) {
			t.Errorf("loopback pkt %d: %v", i, out[i].Data())
		}
		_ = sys.Pool().Free(out[i])
	}
	if err := sys.Control().Unregister(nfID); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SendPackets(nfID, nil); err == nil {
		t.Error("send after unregister accepted")
	}
}

func TestSystemCustomModule(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	spec := dhl.ModuleSpec{
		Name: "xor-mask", LUTs: 2000, BRAM: 4, ThroughputBps: 40e9,
		DelayCycles: 8, BitstreamBytes: 1 << 20,
		New: func() dhl.Module { return &xorModule{} },
	}
	if err := sys.Control().RegisterModule(spec); err != nil {
		t.Fatal(err)
	}
	if err := sys.Control().RegisterModule(spec); err == nil {
		t.Error("duplicate module registration accepted")
	}
	nfID, _ := sys.Register("xor-nf", 0)
	acc, err := sys.SearchByName("xor-mask", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AccConfigure(acc, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	m, _ := sys.Pool().Alloc()
	_ = m.AppendBytes([]byte{0x00, 0xFF})
	m.AccID = uint16(acc)
	if _, err := sys.SendPackets(nfID, []*dhl.Packet{m}); err != nil {
		t.Fatal(err)
	}
	sys.Sim().Run(sys.Sim().Now() + 100*eventsim.Microsecond)
	out := make([]*dhl.Packet, 1)
	if n, _ := sys.ReceivePackets(nfID, out); n != 1 {
		t.Fatal("no packet returned")
	}
	if !bytes.Equal(out[0].Data(), []byte{0x5A, 0xA5}) {
		t.Errorf("xor output %v", out[0].Data())
	}
	_ = sys.Pool().Free(out[0])
}

// xorModule is a trivial custom accelerator for API tests.
type xorModule struct{ mask byte }

func (x *xorModule) Configure(p []byte) error {
	if len(p) != 1 {
		return errors.New("xor: want 1 mask byte")
	}
	x.mask = p[0]
	return nil
}

func (x *xorModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	err := dhlproto.Walk(in, func(r dhlproto.Record) error {
		p := make([]byte, len(r.Payload))
		for i, b := range r.Payload {
			p[i] = b ^ x.mask
		}
		var aerr error
		dst, aerr = dhlproto.AppendRecord(dst, r.NFID, r.AccID, p)
		return aerr
	})
	return dst, err
}

func TestSystemHFTable(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Control().HFTable()) != 0 {
		t.Error("hf table not empty before loads")
	}
	if _, err := sys.LoadPR(dhl.PatternMatching, 0); err != nil {
		t.Fatal(err)
	}
	rows := sys.Control().HFTable()
	if len(rows) != 1 || !strings.Contains(rows[0], dhl.PatternMatching) {
		t.Errorf("hf table %v", rows)
	}
}

// TestAutoTuneZeroAllocHotPath proves the PR's perf clause: with the
// adaptive batching autotuner armed and ticking on the event loop, a
// warm steady-state burst allocates nothing — the controller's only
// allocations happen at reconfiguration boundaries (first sight of an
// accelerator, an actual target change), which the warmup absorbs.
func TestAutoTuneZeroAllocHotPath(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithAutoTune())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := sys.SearchByName(dhl.Loopback, 0)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := sys.Register("autotune-hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	// 4 packets of ~200 B stage a ~900 B batch against the 6 KB target:
	// fill stays far below the shrink threshold, so the controller must
	// adapt during warmup and then hold steady.
	const nPkts = 4
	req := bytes.Repeat([]byte{0x5A}, 200)
	pkts := make([]*dhl.Packet, nPkts)
	out := make([]*dhl.Packet, 2*nPkts)
	cycle := func() {
		for i := range pkts {
			m, aerr := sys.Pool().Alloc()
			if aerr != nil {
				t.Fatal(aerr)
			}
			if aerr := m.AppendBytes(req); aerr != nil {
				t.Fatal(aerr)
			}
			m.AccID = uint16(acc)
			pkts[i] = m
		}
		sent, serr := sys.SendPackets(nf, pkts)
		if serr != nil || sent != nPkts {
			t.Fatalf("send %d %v", sent, serr)
		}
		// One cycle per 200 µs sampling window, so every window sees the
		// cycle's (low-fill) batch and the shrink streak can build.
		sys.Sim().Run(sys.Sim().Now() + 200*eventsim.Microsecond)
		got, rerr := sys.ReceivePackets(nf, out)
		if rerr != nil || got != nPkts {
			t.Fatalf("receive %d %v", got, rerr)
		}
		for i := 0; i < got; i++ {
			_ = sys.Pool().Free(out[i])
		}
	}
	warmup, measured := 50, 100
	if testing.Short() {
		warmup, measured = 25, 40
	}
	for i := 0; i < warmup; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(measured, cycle); avg != 0 {
		t.Errorf("steady-state burst with autotuner armed allocates %.1f objects/run, want 0", avg)
	}

	st := sys.Control().AutoTuneStatus()
	if !st.Enabled || st.Windows == 0 {
		t.Fatalf("tuner not running: %+v", st)
	}
	// Tiny 16-packet bursts never fill a 6 KB batch, so the controller
	// must have adapted (shrink) at least once during warmup.
	if st.GrowDecisions+st.ShrinkDecisions == 0 {
		t.Error("autotuner made no decisions under sustained low-fill load")
	}
	if err := sys.Control().AutoTuneDisable(); err != nil {
		t.Fatal(err)
	}
	if sys.Control().AutoTuneStatus().Enabled {
		t.Error("still enabled after AutoTuneDisable")
	}
}

// TestBackpressureFacade exercises the facade's one refusal signal:
// SendPackets against a system whose IBQ is never drained (no Settle
// between sends), so a burst larger than the 255-slot default queue must
// be refused in part, and the node's Stats count every refusal.
func TestBackpressureFacade(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nf, err := sys.Register("bp", 0)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*dhl.Packet, 300)
	for i := range pkts {
		m, aerr := sys.Pool().Alloc()
		if aerr != nil {
			t.Fatal(aerr)
		}
		if aerr := m.AppendBytes([]byte("x")); aerr != nil {
			t.Fatal(aerr)
		}
		pkts[i] = m
	}
	acc, err := sys.SendPackets(nf, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if acc >= len(pkts) {
		t.Fatalf("255-slot IBQ accepted %d of 300", acc)
	}
	st, err := sys.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.IBQRejected != uint64(len(pkts)-acc) {
		t.Fatalf("Stats(0).IBQRejected = %d, want the %d refused", st.IBQRejected, len(pkts)-acc)
	}
	for _, m := range pkts[acc:] { // caller keeps ownership of the tail
		if ferr := sys.Pool().Free(m); ferr != nil {
			t.Fatal(ferr)
		}
	}
}
