package dhl_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
)

var update = flag.Bool("update", false, "rewrite golden files")

// telemetryWorkload drives a fixed, fully deterministic burst through a
// telemetry-armed System: 8 packets to the ipsec-crypto accelerator, one
// batch through the whole FPGA chain.
func telemetryWorkload(t *testing.T) *dhl.System {
	t.Helper()
	sys, err := dhl.Open(dhl.SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	nf, err := sys.Register("telemetry-test", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := sys.SearchByName(dhl.IPsecCrypto, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := hwfunc.EncodeIPsecCryptoConfig(
		bytes.Repeat([]byte{0x42}, 32), bytes.Repeat([]byte{0x24}, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AccConfigure(acc, blob); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	pkts := make([]*dhl.Packet, 8)
	for i := range pkts {
		m, aerr := sys.Pool().Alloc()
		if aerr != nil {
			t.Fatal(aerr)
		}
		// ipsec-crypto request records carry a 2-byte encryption-offset
		// prefix ahead of the frame.
		req, rerr := hwfunc.EncodeIPsecRequest(nil, bytes.Repeat([]byte{byte(i)}, 128), 0)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if aerr := m.AppendBytes(req); aerr != nil {
			t.Fatal(aerr)
		}
		m.AccID = uint16(acc)
		pkts[i] = m
	}
	if n, serr := sys.SendPackets(nf, pkts); serr != nil || n != len(pkts) {
		t.Fatalf("send %d %v", n, serr)
	}
	sys.Sim().Run(sys.Sim().Now() + 300*eventsim.Microsecond)
	out := make([]*dhl.Packet, 16)
	got, rerr := sys.ReceivePackets(nf, out)
	if rerr != nil || got != len(pkts) {
		t.Fatalf("receive %d %v", got, rerr)
	}
	for i := 0; i < got; i++ {
		_ = sys.Pool().Free(out[i])
	}
	return sys
}

// TestServeMetricsGolden scrapes the live HTTP endpoint after the fixed
// workload and compares the whole Prometheus exposition byte-for-byte
// against testdata/metrics.golden. The simulation is deterministic, so
// every histogram bucket, counter and gauge is too; the golden file pins
// the full exported surface, per-stage buckets and the health gauge
// included. Regenerate with: go test . -run ServeMetricsGolden -update
func TestServeMetricsGolden(t *testing.T) {
	sys := telemetryWorkload(t)
	exp, err := sys.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := exp.Close(); cerr != nil {
			t.Errorf("Close: %v", cerr)
		}
	}()
	resp, err := http.Get("http://" + exp.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if werr := os.WriteFile(golden, body, 0o644); werr != nil {
			t.Fatal(werr)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("scrape drifted from golden file (re-run with -update to accept):\n--- got ---\n%s", body)
	}

	// Belt and suspenders on the load-bearing families, so a stale golden
	// regeneration cannot silently drop them.
	for _, probe := range []string{
		`dhl_stage_latency_ns_bucket{stage="accelerator",le="+Inf"} 1`,
		`dhl_stage_latency_ns_count{stage="ibq_wait"} 8`,
		`dhl_acc_health{acc_id="1",hf="ipsec-crypto"} 1`,
		`dhl_core_batches_total{core="rx/0"} 1`,
		"dhl_dma_service_ns_bucket",
		"dhl_dispatch_service_ns_count 1",
		`dhl_health_transitions_total{to="quarantined"} 0`,
		"dhl_mbuf_in_use 0",
		"dhl_spans_total 1",
	} {
		if !strings.Contains(string(body), probe) {
			t.Errorf("scrape missing %q", probe)
		}
	}
}

// TestServeMetricsIdleLoop503: on a control-plane system a scrape rides
// the management API's dispatch, so with nobody pumping the loop it
// answers 503 after the call timeout instead of hanging or reading
// simulation state off the loop.
func TestServeMetricsIdleLoop503(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get("http://" + exp.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "50ms") {
			t.Errorf("%s with an idle loop: %d %q", path, resp.StatusCode, body)
		}
	}
}

// TestServeScrapeDuringTraffic scrapes /metrics from the test goroutine
// while another goroutine sends traffic and drives Sim().Run. mbuf.Pool
// has no lock: the dhl_mbuf_in_use gauge it feeds is only safe to read on
// the goroutine driving the loop, which is where Serve's dispatch renders
// a control-plane system's scrape. Under -race, a scrape that read the
// pool from the HTTP handler's goroutine fails here.
func TestServeScrapeDuringTraffic(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0", dhl.WithCallTimeout(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	nf, err := sys.Register("scrape-test", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := sys.SearchByName(dhl.IPsecCrypto, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := hwfunc.EncodeIPsecCryptoConfig(
		bytes.Repeat([]byte{0x42}, 32), bytes.Repeat([]byte{0x24}, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AccConfigure(acc, blob); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	req, err := hwfunc.EncodeIPsecRequest(nil, bytes.Repeat([]byte{0x5A}, 256), 0)
	if err != nil {
		t.Fatal(err)
	}

	// The driver owns the pool: it allocates, sends, runs the loop (which
	// also serves the scrapes' dispatch), receives and frees.
	var stop atomic.Bool
	driven := make(chan error, 1)
	received := 0
	go func() {
		out := make([]*dhl.Packet, 64)
		for !stop.Load() {
			pkts := make([]*dhl.Packet, 0, 8)
			for len(pkts) < cap(pkts) {
				m, aerr := sys.Pool().Alloc()
				if aerr != nil {
					break
				}
				if aerr := m.AppendBytes(req); aerr != nil {
					driven <- aerr
					return
				}
				m.AccID = uint16(acc)
				pkts = append(pkts, m)
			}
			sent, serr := sys.SendPackets(nf, pkts)
			if serr != nil {
				sent = 0
			}
			for _, m := range pkts[sent:] {
				_ = sys.Pool().Free(m)
			}
			sys.Sim().Run(sys.Sim().Now() + 200*eventsim.Microsecond)
			got, rerr := sys.ReceivePackets(nf, out)
			if rerr != nil {
				driven <- rerr
				return
			}
			for _, m := range out[:got] {
				_ = sys.Pool().Free(m)
			}
			received += got
			time.Sleep(100 * time.Microsecond)
		}
		driven <- nil
	}()

	scrapes := 20
	if testing.Short() {
		scrapes = 8
	}
	for i := 0; i < scrapes; i++ {
		resp, gerr := http.Get("http://" + exp.Addr() + "/metrics")
		if gerr != nil {
			stop.Store(true)
			<-driven
			t.Fatal(gerr)
		}
		body, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\ndhl_mbuf_in_use ") {
			stop.Store(true)
			<-driven
			t.Fatalf("scrape %d: %d %v, gauge missing:\n%s", i, resp.StatusCode, rerr, body)
		}
	}
	stop.Store(true)
	if err := <-driven; err != nil {
		t.Fatal(err)
	}
	if received == 0 {
		t.Fatal("no traffic came back while the scrapes ran")
	}
	sys.Sim().Run(sys.Sim().Now() + 10*eventsim.Millisecond)
	out := make([]*dhl.Packet, 64)
	for {
		got, rerr := sys.ReceivePackets(nf, out)
		if rerr != nil || got == 0 {
			break
		}
		for _, m := range out[:got] {
			_ = sys.Pool().Free(m)
		}
	}
	if n := sys.Pool().InUse(); n != 0 {
		t.Errorf("%d mbufs still in use after the drain", n)
	}
}

// TestSystemSnapshotDelta exercises the facade Snapshot/Delta path and
// the telemetry-off behaviour.
func TestSystemSnapshotDelta(t *testing.T) {
	sys := telemetryWorkload(t)
	before := sys.Snapshot()
	if before == nil || before.CounterTotal(dhl.CounterBatches) != 1 {
		t.Fatalf("snapshot: %+v", before)
	}
	if len(before.Spans) != 1 || before.Spans[0].Outcome != dhl.OutcomeOK {
		t.Fatalf("spans: %+v", before.Spans)
	}
	d := sys.Snapshot().Delta(before)
	if d.CounterTotal(dhl.CounterBatches) != 0 || len(d.Spans) != 0 {
		t.Errorf("idle delta shows activity: %+v", d)
	}

	off, err := dhl.Open(dhl.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Snapshot() != nil {
		t.Error("telemetry-off system takes a snapshot")
	}
	if _, err := off.Serve("127.0.0.1:0"); err == nil {
		t.Error("Serve succeeded with telemetry off")
	}
}
