package dhl_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/ctlplane"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/nf"
)

// pumper owns ALL simulation interaction for a live-system test: it
// drives Sim().Run continuously (which drains the Post mailbox the
// control plane relies on) and executes do() closures on the simulation
// goroutine. HTTP client goroutines only ever do RPCs.
type pumper struct {
	sys  *dhl.System
	cmds chan func()
	stop chan struct{}
	wg   sync.WaitGroup
}

func startPumper(sys *dhl.System) *pumper {
	p := &pumper{sys: sys, cmds: make(chan func()), stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.stop:
				return
			case fn := <-p.cmds:
				fn()
			default:
				p.sys.Sim().Run(p.sys.Sim().Now() + 100*eventsim.Microsecond)
				// Yield real time so RPC goroutines get scheduled promptly
				// without this loop monopolizing a core.
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	return p
}

// do runs fn on the pumper goroutine, serialized with the simulation,
// and waits for it.
func (p *pumper) do(fn func()) {
	done := make(chan struct{})
	p.cmds <- func() { fn(); close(done) }
	<-done
}

func (p *pumper) shutdown() {
	close(p.stop)
	p.wg.Wait()
}

// ipsecBlob builds the acc.configure payload used by the live tests.
func ipsecBlob(t *testing.T) []byte {
	t.Helper()
	blob, err := hwfunc.EncodeIPsecCryptoConfig(
		bytes.Repeat([]byte{0x42}, 32), bytes.Repeat([]byte{0x24}, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// sendRound pushes n ipsec request packets of payloadLen bytes through
// the pipeline and frees the responses. Must run on the pumper
// goroutine (inside do).
func sendRound(t *testing.T, sys *dhl.System, nf dhl.NFID, acc dhl.AccID, n, payloadLen int) {
	t.Helper()
	pkts := make([]*dhl.Packet, n)
	payload := bytes.Repeat([]byte{0x5A}, payloadLen)
	for i := range pkts {
		m, err := sys.Pool().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		req, err := hwfunc.EncodeIPsecRequest(nil, payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AppendBytes(req); err != nil {
			t.Fatal(err)
		}
		m.AccID = uint16(acc)
		pkts[i] = m
	}
	if sent, err := sys.SendPackets(nf, pkts); err != nil || sent != n {
		t.Fatalf("send %d err %v", sent, err)
	}
	sys.Sim().Run(sys.Sim().Now() + 2*eventsim.Millisecond)
	out := make([]*dhl.Packet, 2*n)
	got, err := sys.ReceivePackets(nf, out)
	if err != nil || got != n {
		t.Fatalf("receive %d err %v", got, err)
	}
	for i := 0; i < got; i++ {
		_ = sys.Pool().Free(out[i])
	}
}

// TestControlPlaneLiveReconfig is the tentpole acceptance test: a live
// system accepts nf.register, acc.load, acc.configure, fallback.set and
// tune.batch over /api/v1 with traffic flowing, and a mid-run batch-size
// change shows up in the per-stage histograms (more, smaller batches
// through the pack stage) and in the telemetry.delta span stream.
func TestControlPlaneLiveReconfig(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := exp.Close(); cerr != nil {
			t.Errorf("Close: %v", cerr)
		}
	}()
	p := startPumper(sys)
	defer p.shutdown()

	c := dhl.DialControl(exp.Addr())
	defer func() { _ = c.Close() }()
	if err := c.Call("sys.ping", nil, nil); err != nil {
		t.Fatal(err)
	}

	// Bring the data path up entirely over the API.
	var reg struct {
		NFID dhl.NFID `json:"nf_id"`
	}
	if err := c.Call("nf.register", map[string]any{"name": "live-nf", "node": 0}, &reg); err != nil {
		t.Fatal(err)
	}
	var load struct {
		AccID dhl.AccID `json:"acc_id"`
	}
	if err := c.Call("acc.load", map[string]any{"hf": dhl.IPsecCrypto, "node": 0}, &load); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("acc.configure", map[string]any{"acc_id": load.AccID, "params": ipsecBlob(t)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("fallback.set", map[string]any{"hf": dhl.IPsecCrypto, "node": 0}, nil); err != nil {
		t.Fatal(err)
	}
	p.do(sys.Settle)

	var info struct {
		BatchBytes   int `json:"batch_bytes"`
		Accelerators []struct {
			AccID dhl.AccID `json:"acc_id"`
			HF    string    `json:"hf"`
			Ready bool      `json:"ready"`
		} `json:"accelerators"`
	}
	if err := c.Call("sys.info", nil, &info); err != nil {
		t.Fatal(err)
	}
	if info.BatchBytes != 6144 || len(info.Accelerators) != 1 || !info.Accelerators[0].Ready {
		t.Fatalf("sys.info %+v", info)
	}

	// Baseline the delta stream, then run traffic at 6 KB batches.
	var d struct {
		Active bool                   `json:"active"`
		Delta  *dhl.TelemetrySnapshot `json:"delta"`
	}
	if err := c.Call("telemetry.delta", map[string]any{"stream": "reconfig"}, &d); err != nil {
		t.Fatal(err)
	}
	const rounds, pktsPerRound, payloadLen = 4, 16, 512
	for i := 0; i < rounds; i++ {
		p.do(func() { sendRound(t, sys, reg.NFID, load.AccID, pktsPerRound, payloadLen) })
	}
	if err := c.Call("telemetry.delta", map[string]any{"stream": "reconfig", "wait_ms": 5000}, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Active {
		t.Fatal("no activity after traffic")
	}
	before := d.Delta.Stages[dhl.StagePack].Count
	// 16 x ~530 B per round against a 6 KB target: at most 2 batches/round.
	if before == 0 || before > uint64(2*rounds) {
		t.Fatalf("6KB pack count = %d", before)
	}
	var maxSpan uint32
	for _, sp := range d.Delta.Spans {
		if sp.Bytes > maxSpan {
			maxSpan = sp.Bytes
		}
	}
	if maxSpan < 4096 {
		t.Fatalf("6KB-era spans top out at %d bytes", maxSpan)
	}

	// Retarget the batch size live, mid-run, over the API ...
	var tuned struct {
		BatchBytes int `json:"batch_bytes"`
	}
	if err := c.Call("tune.batch", map[string]any{"bytes": 1024}, &tuned); err != nil {
		t.Fatal(err)
	}
	if tuned.BatchBytes != 1024 {
		t.Fatalf("tune.batch applied %d", tuned.BatchBytes)
	}

	// ... and the same traffic now flows as many small batches: the pack
	// stage histogram grows much faster and every new span fits 1 KB.
	for i := 0; i < rounds; i++ {
		p.do(func() { sendRound(t, sys, reg.NFID, load.AccID, pktsPerRound, payloadLen) })
	}
	if err := c.Call("telemetry.delta", map[string]any{"stream": "reconfig", "wait_ms": 5000}, &d); err != nil {
		t.Fatal(err)
	}
	after := d.Delta.Stages[dhl.StagePack].Count
	// 16 x ~530 B per round at a 1 KB target is at least 8 batches/round.
	if after < uint64(8*rounds) {
		t.Fatalf("1KB pack count = %d, want >= %d", after, 8*rounds)
	}
	if len(d.Delta.Spans) == 0 {
		t.Fatal("no spans in post-tune delta")
	}
	for _, sp := range d.Delta.Spans {
		if sp.Bytes > 1024 {
			t.Fatalf("post-tune span of %d bytes exceeds the 1 KB target", sp.Bytes)
		}
	}

	// The Prometheus scrape rides the same listener, unchanged.
	resp, err := http.Get("http://" + exp.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dhl_stage_latency_ns_count") {
		t.Error("/metrics scrape lost the stage histograms")
	}
}

// TestAccMigrateRefusesUnknownBoard: on a two-board fleet, where the
// scheduler could place the accelerator, acc.migrate to board -7 is
// refused over the wire and the accelerator stays where it was.
func TestAccMigrateRefusesUnknownBoard(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{FPGAsPerNode: 2}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	p := startPumper(sys)
	defer p.shutdown()
	c := dhl.DialControl(exp.Addr())
	defer func() { _ = c.Close() }()

	var load struct {
		AccID dhl.AccID `json:"acc_id"`
	}
	if err := c.Call("acc.load", map[string]any{"hf": dhl.IPsecCrypto, "node": 0}, &load); err != nil {
		t.Fatal(err)
	}
	p.do(sys.Settle)
	var rerr *dhl.ControlError
	if err := c.Call("acc.migrate", map[string]any{"acc_id": load.AccID, "board": -7}, nil); !errors.As(err, &rerr) ||
		!strings.Contains(rerr.Message, "unknown board") {
		t.Errorf("acc.migrate to board -7: %v", err)
	}
	p.do(sys.Settle)
	var placed struct {
		Boards []dhl.PlacementBoard `json:"boards"`
	}
	if err := c.Call("placement.get", nil, &placed); err != nil {
		t.Fatal(err)
	}
	if len(placed.Boards) != 2 || len(placed.Boards[0].Endpoints) != 1 || len(placed.Boards[1].Endpoints) != 0 {
		t.Errorf("placement after the refused migration: %+v", placed.Boards)
	}
}

// TestServeControlPlaneGating: /api/v1 exists only on WithControlPlane
// systems; plain telemetry systems keep the metrics-only surface.
func TestServeControlPlaneGating(t *testing.T) {
	plain, err := dhl.Open(dhl.SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := plain.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	resp, err := http.Get("http://" + exp.Addr() + "/api/v1")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("plain system serves /api/v1: %d", resp.StatusCode)
	}

	armed, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := armed.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp2.Close() }()
	resp, err = http.Get("http://" + exp2.Addr() + "/api/v1")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("armed system GET /api/v1: %d", resp.StatusCode)
	}
	// Without a pumper the loop is idle: management calls must fail fast
	// with the loop-idle code instead of hanging.
	exp3, err := armed.Serve("127.0.0.1:0", dhl.WithCallTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp3.Close() }()
	c := dhl.DialControl(exp3.Addr())
	defer func() { _ = c.Close() }()
	var rerr *dhl.ControlError
	if err := c.Call("sys.info", nil, nil); !errors.As(err, &rerr) || rerr.Code != ctlplane.CodeLoopIdle {
		t.Errorf("idle-loop call: %v", err)
	}
}

// TestControlPlaneConcurrentChaos hammers the management API from
// several goroutines — register/unregister churn, acc.load/acc.evict
// cycles, live tune.batch/tune.watchdog flips, fallback set/clear,
// health and stats reads — while chaos-injected traffic flows, then
// checks the conservation ledger still balances and nothing leaked.
// Run under -race this also proves control ops never touch simulation
// state off the event loop.
func TestControlPlaneConcurrentChaos(t *testing.T) {
	plan, err := dhl.NewFaultPlan(42,
		dhl.FaultSpec{Kind: dhl.FaultModuleError, EveryN: 7},
		dhl.FaultSpec{Kind: dhl.FaultDMAH2CError, EveryN: 11},
		dhl.FaultSpec{Kind: dhl.FaultDMAC2HCorrupt, EveryN: 13},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane(), dhl.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()

	// The anchor NF and accelerator carry traffic for the whole run; the
	// mutator goroutines churn everything else around them.
	nf, err := sys.Register("anchor", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := sys.SearchByName(dhl.IPsecCrypto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AccConfigure(acc, ipsecBlob(t)); err != nil {
		t.Fatal(err)
	}
	sys.Settle()

	// Traffic pumper: bursts against the anchor accelerator, freeing
	// whatever comes back (chaos drops some packets by design).
	var stopTraffic atomic.Bool
	var pumpWG sync.WaitGroup
	payload := bytes.Repeat([]byte{0x33}, 400)
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		out := make([]*dhl.Packet, 64)
		for !stopTraffic.Load() {
			pkts := make([]*dhl.Packet, 0, 8)
			for i := 0; i < 8; i++ {
				m, aerr := sys.Pool().Alloc()
				if aerr != nil {
					break
				}
				req, rerr := hwfunc.EncodeIPsecRequest(nil, payload, 0)
				if rerr != nil {
					_ = sys.Pool().Free(m)
					break
				}
				if aerr := m.AppendBytes(req); aerr != nil {
					_ = sys.Pool().Free(m)
					break
				}
				m.AccID = uint16(acc)
				pkts = append(pkts, m)
			}
			if len(pkts) > 0 {
				sent, serr := sys.SendPackets(nf, pkts)
				if serr != nil {
					for _, m := range pkts {
						_ = sys.Pool().Free(m)
					}
				} else {
					for _, m := range pkts[sent:] {
						_ = sys.Pool().Free(m)
					}
				}
			}
			sys.Sim().Run(sys.Sim().Now() + 500*eventsim.Microsecond)
			if got, rerr := sys.ReceivePackets(nf, out); rerr == nil {
				for i := 0; i < got; i++ {
					_ = sys.Pool().Free(out[i])
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Mutators. Operations may legitimately fail (evicting a region that
	// is mid-reload, unregistering an id racing another cycle); what they
	// must never do is corrupt state or race. Protocol-level failures
	// other than CodeOpFailed are bugs.
	rpcFatal := func(err error) bool {
		if err == nil {
			return false
		}
		var rerr *dhl.ControlError
		return !errors.As(err, &rerr) || rerr.Code != ctlplane.CodeOpFailed
	}
	perMutator := 25
	if testing.Short() {
		perMutator = 10
	}
	var mutWG sync.WaitGroup
	mutErr := make(chan error, 4)
	mutate := func(name string, fn func(c *dhl.ControlClient, i int) error) {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			c := dhl.DialControl(exp.Addr())
			defer func() { _ = c.Close() }()
			for i := 0; i < perMutator; i++ {
				if err := fn(c, i); err != nil {
					mutErr <- err
					return
				}
			}
		}()
	}
	mutate("nf-churn", func(c *dhl.ControlClient, i int) error {
		var reg struct {
			NFID dhl.NFID `json:"nf_id"`
		}
		if err := c.Call("nf.register", map[string]any{"name": "churn", "node": 0}, &reg); err != nil {
			return err
		}
		if err := c.Call("nf.unregister", map[string]any{"nf_id": reg.NFID}, nil); rpcFatal(err) {
			return err
		}
		return nil
	})
	mutate("acc-churn", func(c *dhl.ControlClient, i int) error {
		var load struct {
			AccID dhl.AccID `json:"acc_id"`
		}
		if err := c.Call("acc.load", map[string]any{"hf": dhl.Loopback, "node": 0}, &load); err != nil {
			var rerr *dhl.ControlError
			if errors.As(err, &rerr) && rerr.Code == ctlplane.CodeOpFailed {
				// Region pressure from a racing cycle; try again later.
				return nil
			}
			return err
		}
		// The fresh region reconfigures for a while; evict must refuse
		// politely until it settles, then succeed.
		for {
			err := c.Call("acc.evict", map[string]any{"acc_id": load.AccID}, nil)
			if err == nil {
				return nil
			}
			if rpcFatal(err) {
				return err
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
	mutate("tuner", func(c *dhl.ControlClient, i int) error {
		sizes := []int{1024, 2048, 6144}
		if err := c.Call("tune.batch", map[string]any{"bytes": sizes[i%len(sizes)]}, nil); err != nil {
			return err
		}
		tmos := []int{100, 250, 0}
		if err := c.Call("tune.watchdog", map[string]any{"timeout_us": tmos[i%len(tmos)]}, nil); err != nil {
			return err
		}
		if i%2 == 0 {
			if err := c.Call("fallback.set", map[string]any{"hf": dhl.IPsecCrypto, "node": 0}, nil); rpcFatal(err) {
				return err
			}
		} else {
			if err := c.Call("fallback.clear", map[string]any{"hf": dhl.IPsecCrypto, "node": 0}, nil); rpcFatal(err) {
				return err
			}
		}
		return nil
	})
	mutate("reader", func(c *dhl.ControlClient, i int) error {
		if err := c.Call("health.get", nil, nil); err != nil {
			return err
		}
		var st dhl.TransferStats
		if err := c.Call("stats.get", map[string]any{"node": 0}, &st); err != nil {
			return err
		}
		if err := c.Call("sys.info", nil, nil); err != nil {
			return err
		}
		return c.Call("telemetry.delta", map[string]any{"stream": "chaos-reader", "wait_ms": 10}, nil)
	})

	mutWG.Wait()
	select {
	case err := <-mutErr:
		t.Fatal(err)
	default:
	}
	// Let in-flight work complete, then stop the pumper and drain.
	time.Sleep(20 * time.Millisecond)
	stopTraffic.Store(true)
	pumpWG.Wait()
	sys.Sim().Run(sys.Sim().Now() + 100*eventsim.Millisecond)
	out := make([]*dhl.Packet, 256)
	for {
		got, rerr := sys.ReceivePackets(nf, out)
		if rerr != nil || got == 0 {
			break
		}
		for i := 0; i < got; i++ {
			_ = sys.Pool().Free(out[i])
		}
	}

	// The PR 4 conservation ledger balances through all of it.
	st, err := sys.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.PktsPacked == 0 {
		t.Fatal("no traffic flowed during chaos")
	}
	if st.IBQDrained != st.PktsPacked+st.StagingDrops {
		t.Errorf("ingress ledger unbalanced: drained %d != packed %d + staging drops %d",
			st.IBQDrained, st.PktsPacked, st.StagingDrops)
	}
	if st.PktsPacked != st.PktsDistributed+st.DropFault+st.DropCorrupt+st.DropMismatch+st.DropNoRoute {
		t.Errorf("transfer ledger unbalanced: %+v", st)
	}
	if n := sys.Pool().InUse(); n != 0 {
		t.Errorf("%d mbufs leaked through chaos reconfiguration", n)
	}
}

// TestControlPlaneZeroAllocHotPath proves the tentpole's perf clause:
// with the control plane serving (listener up, management calls made
// over it before and after the window), a warm steady-state burst on
// the hot path still allocates nothing.
func TestControlPlaneZeroAllocHotPath(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	p := startPumper(sys)

	c := dhl.DialControl(exp.Addr())
	defer func() { _ = c.Close() }()
	var reg struct {
		NFID dhl.NFID `json:"nf_id"`
	}
	if err := c.Call("nf.register", map[string]any{"name": "hot", "node": 0}, &reg); err != nil {
		t.Fatal(err)
	}
	// Loopback is the paper's pure-DMA benchmark module — the hot path
	// with no per-packet compute on top, so any allocation measured below
	// belongs to the transfer machinery itself.
	var load struct {
		AccID dhl.AccID `json:"acc_id"`
	}
	if err := c.Call("acc.load", map[string]any{"hf": dhl.Loopback, "node": 0}, &load); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("tune.batch", map[string]any{"bytes": 2048}, nil); err != nil {
		t.Fatal(err)
	}
	p.do(sys.Settle)
	// Quiesce the pumper: the measuring goroutine now owns the sim, with
	// the HTTP listener still up and its connection still open.
	p.shutdown()

	nf, acc := reg.NFID, load.AccID
	const nPkts = 16
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
		if sent, serr := sys.SendPackets(nf, pkts); serr != nil || sent != nPkts {
			t.Fatalf("send %d %v", sent, serr)
		}
		sys.Sim().Run(sys.Sim().Now() + 2*eventsim.Millisecond)
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
		t.Errorf("steady-state burst with control plane serving allocates %.1f objects/run, want 0", avg)
	}

	// The management surface is still alive after the measured window.
	p2 := startPumper(sys)
	defer p2.shutdown()
	var st dhl.TransferStats
	if err := c.Call("stats.get", map[string]any{"node": 0}, &st); err != nil {
		t.Fatal(err)
	}
	if st.PktsPacked == 0 {
		t.Error("stats.get after the window sees no traffic")
	}
}

// TestFlowTableObservability wires a stateful NF's flow table and a
// second table into the system: RegisterFlowTables must surface each as
// its own dhl_flowtab_* gauges on /metrics and its own row of stats.get's
// additive flowtabs field, and UnregisterFlowTable must take exactly the
// named table's row and gauges away.
func TestFlowTableObservability(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	ffw, err := nf.NewFlowFirewall(nf.NewFirewall(nf.FirewallAllow), nf.FlowFirewallConfig{
		FlowTTL: eventsim.Second,
		Clock:   sys.Sim().Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	aux, err := flowtab.New(flowtab.Config[uint64, struct{}]{Name: "aux-flows", Hash: flowtab.Mix64})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 2; k++ {
		if _, _, ierr := aux.Insert(k); ierr != nil {
			t.Fatal(ierr)
		}
	}
	if err := sys.Control().RegisterFlowTables(append(ffw.FlowTabs(), aux)...); err != nil {
		t.Fatal(err)
	}
	if err := sys.Control().RegisterFlowTables(ffw.FlowTabs()...); err == nil {
		t.Error("duplicate flow-table registration accepted")
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	p := startPumper(sys)
	defer p.shutdown()

	// Push three flows through the firewall on the simulation goroutine.
	p.do(func() {
		buf := make([]byte, 2048)
		for i := 0; i < 3; i++ {
			n, berr := eth.Build(buf, eth.BuildConfig{
				SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
				SrcIP: eth.IPv4{192, 168, 0, byte(i + 1)}, DstIP: eth.IPv4{8, 8, 8, 8},
				SrcPort: 1000, DstPort: 80, Proto: eth.ProtoUDP, Payload: []byte("x"),
			})
			if berr != nil {
				t.Error(berr)
				return
			}
			m, merr := sys.Pool().Alloc()
			if merr != nil {
				t.Error(merr)
				return
			}
			if aerr := m.AppendBytes(buf[:n]); aerr != nil {
				t.Error(aerr)
				return
			}
			if v, _ := ffw.Process(m); v != nf.VerdictForward {
				t.Error("firewall dropped the setup flow")
			}
			_ = sys.Pool().Free(m)
		}
	})

	// stats.get reports the tables with their live occupancy.
	c := dhl.DialControl(exp.Addr())
	defer func() { _ = c.Close() }()
	var st struct {
		Flowtabs []dhl.FlowTableInfo `json:"flowtabs"`
	}
	if err := c.Call("stats.get", map[string]any{"node": 0}, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Flowtabs) != 2 ||
		st.Flowtabs[0].Name != "fw-flows" || st.Flowtabs[0].Entries != 3 ||
		st.Flowtabs[1].Name != "aux-flows" || st.Flowtabs[1].Entries != 2 {
		t.Fatalf("flowtabs %+v, want fw-flows with 3 entries and aux-flows with 2", st.Flowtabs)
	}

	// /metrics carries the gauge family with per-table labels.
	metrics := func() string {
		t.Helper()
		resp, err := http.Get("http://" + exp.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	fwGauges := []string{
		`dhl_flowtab_entries{table="fw-flows"} 3`,
		`dhl_flowtab_evictions{table="fw-flows",reason="idle"}`,
		`dhl_flowtab_capacity{table="fw-flows"}`,
	}
	auxGauges := []string{
		`dhl_flowtab_entries{table="aux-flows"} 2`,
		`dhl_flowtab_evictions{table="aux-flows",reason="idle"}`,
		`dhl_flowtab_capacity{table="aux-flows"}`,
	}
	text := metrics()
	for _, want := range append(fwGauges, auxGauges...) {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Unregistering one table removes its gauges and its stats.get row,
	// and leaves the other's.
	p.do(func() {
		if uerr := sys.Control().UnregisterFlowTable("fw-flows"); uerr != nil {
			t.Error(uerr)
		}
	})
	st.Flowtabs = nil
	if err := c.Call("stats.get", map[string]any{"node": 0}, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Flowtabs) != 1 || st.Flowtabs[0].Name != "aux-flows" || st.Flowtabs[0].Entries != 2 {
		t.Errorf("flowtabs after unregister: %+v, want aux-flows alone", st.Flowtabs)
	}
	text = metrics()
	if strings.Contains(text, `table="fw-flows"`) {
		t.Error("/metrics still carries fw-flows gauges after unregister")
	}
	for _, want := range auxGauges {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lost %q after the other table's unregister", want)
		}
	}
}

// TestTuneAutoRPC drives the adaptive batching autotuner over the wire:
// tune.auto on -> status -> off against a served system. The tuner is
// constructed lazily (the system was opened with WithControlPlane, not
// WithAutoTune), so this also covers the ensureTuner path.
func TestTuneAutoRPC(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	p := startPumper(sys)
	defer p.shutdown()

	c := dhl.DialControl(exp.Addr())
	defer func() { _ = c.Close() }()

	var st dhl.TunerStatus
	if err := c.Call("tune.auto", nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("tuner enabled before tune.auto on: %+v", st)
	}
	if err := c.Call("tune.auto", map[string]any{"state": "on"}, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled {
		t.Fatalf("tune.auto on returned disabled status: %+v", st)
	}
	// The controller ticks on the event loop the pumper is driving.
	deadline := time.Now().Add(5 * time.Second)
	for st.Windows == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if err := c.Call("tune.auto", map[string]any{"state": "status"}, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.Windows == 0 {
		t.Error("tuner sampled no windows while the loop was pumping")
	}
	if err := c.Call("tune.auto", map[string]any{"state": "off"}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("tune.auto off returned enabled status: %+v", st)
	}
	var rpcErr *ctlplane.Error
	if err := c.Call("tune.auto", map[string]any{"state": "sideways"}, nil); !errors.As(err, &rpcErr) || rpcErr.Code != ctlplane.CodeInvalidParams {
		t.Errorf("bad state value: %v, want CodeInvalidParams", err)
	}
}
