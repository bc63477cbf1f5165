package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fully deterministic contents so
// the text encoding can be compared byte-for-byte.
func goldenRegistry() *Registry {
	r := New(4)
	tx := r.RegisterCore("tx", 0)
	rx := r.RegisterCore("rx", 0)
	tx.Add(CounterBatches, 7)
	tx.Add(CounterPackets, 224)
	tx.Add(CounterBytes, 43008)
	tx.Inc(CounterDMARetries)
	rx.Add(CounterBatches, 7)
	rx.Inc(CounterFailedBatches)

	r.ObserveStage(StageIBQWait, 500*eventsim.Nanosecond)
	r.ObserveStage(StagePack, 2*eventsim.Microsecond)
	r.ObserveStage(StageH2C, 6*eventsim.Microsecond)
	r.ObserveStage(StageAccel, 12*eventsim.Microsecond)
	r.ObserveStage(StageC2H, 6*eventsim.Microsecond)
	r.ObserveStage(StageDistribute, eventsim.Microsecond)
	r.DMAH2C.Observe(5 * eventsim.Microsecond)
	r.DMAH2C.Observe(7 * eventsim.Microsecond)
	r.DMAC2H.Observe(5 * eventsim.Microsecond)
	r.Dispatch.Observe(11 * eventsim.Microsecond)

	r.Health.Degraded.Inc()
	r.Health.Quarantined.Inc()
	r.Health.Recovered.Inc()

	r.Spans.Push(&Span{NFID: 1, AccID: 2, Packets: 32, Bytes: 6144})

	// Registered out of name order: the encoder must sort families.
	r.RegisterGauge("dhl_ring_occupancy", `ring="obq-1"`, "Entries queued in the ring.", func() float64 { return 3 })
	r.RegisterGauge("dhl_ring_occupancy", `ring="ibq-node0"`, "Entries queued in the ring.", func() float64 { return 12 })
	r.RegisterGauge("dhl_acc_health", `acc_id="1",hf="ipsec-crypto"`, "1 healthy, 2 degraded, 3 quarantined.", func() float64 { return 1 })
	r.RegisterGauge("dhl_mbuf_in_use", "", "Packet buffers currently leased.", func() float64 { return 64.5 })
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus text drifted from golden file (re-run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// failAfter fails the nth write, for exercising the errWriter latch.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	f.n--
	return len(p), nil
}

func TestWritePrometheusPropagatesWriteError(t *testing.T) {
	wantErr := errors.New("sink full")
	if err := goldenRegistry().WritePrometheus(&failAfter{n: 3, err: wantErr}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestExporterEndpoints(t *testing.T) {
	reg := goldenRegistry()
	e := NewExporter(reg)
	addr, err := e.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := e.Close(); cerr != nil {
			t.Errorf("Close: %v", cerr)
		}
	}()
	if e.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", e.Addr(), addr)
	}

	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, gerr := http.Get("http://" + addr + path)
		if gerr != nil {
			t.Fatalf("GET %s: %v", path, gerr)
		}
		body, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if rerr != nil {
			t.Fatalf("read %s: %v", path, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp
	}

	metrics, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	var direct bytes.Buffer
	if werr := reg.WritePrometheus(&direct); werr != nil {
		t.Fatal(werr)
	}
	if metrics != direct.String() {
		t.Error("scraped /metrics differs from WritePrometheus output")
	}
	for _, want := range []string{
		`dhl_stage_latency_ns_bucket{stage="h2c",le="8192"} 1`,
		`dhl_health_transitions_total{to="quarantined"} 1`,
		`dhl_acc_health{acc_id="1",hf="ipsec-crypto"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	vars, _ := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if jerr := json.Unmarshal([]byte(vars), &decoded); jerr != nil {
		t.Fatalf("/debug/vars is not JSON: %v", jerr)
	}
	if _, ok := decoded["dhl"]; !ok {
		t.Error("/debug/vars lacks the dhl snapshot key")
	}
	var snap Snapshot
	if jerr := json.Unmarshal(decoded["dhl"], &snap); jerr != nil {
		t.Fatalf("dhl snapshot var does not decode: %v", jerr)
	}
	if snap.Health.Quarantined != 1 || len(snap.Spans) != 1 {
		t.Errorf("snapshot via expvar: health=%+v spans=%d", snap.Health, len(snap.Spans))
	}

	get("/debug/pprof/")
	get("/debug/pprof/cmdline")
}

func TestExporterCloseWithoutStart(t *testing.T) {
	e := NewExporter(New(0))
	if err := e.Close(); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Close before Start = %v, want ErrNotServing", err)
	}
	if e.Addr() != "" {
		t.Errorf("Addr before Start = %q", e.Addr())
	}
}

// TestExporterHalfRequestTimesOut holds the listener to its read deadline:
// a client that sends half a request line and goes quiet is cut off, both
// when the exporter binds the socket itself and when it is handed one.
// Without a deadline the read below runs into its own.
func TestExporterHalfRequestTimesOut(t *testing.T) {
	const bound = 5 * time.Second // above readHeaderTimeout, far below forever
	for _, site := range []string{"Start", "Serve"} {
		t.Run(site, func(t *testing.T) {
			t.Parallel() // each site waits out the deadline in real time
			e := NewExporter(New(0))
			var addr string
			if site == "Start" {
				var err error
				if addr, err = e.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
			} else {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr = ln.Addr().String()
				served := make(chan error, 1)
				go func() { served <- e.Serve(ln) }()
				defer func() {
					if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
						t.Errorf("Serve returned %v", serr)
					}
				}()
			}
			defer func() {
				if cerr := e.Close(); cerr != nil {
					t.Errorf("Close: %v", cerr)
				}
			}()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET /metr")); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(bound)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			// net/http hangs up, with or without a 400 first; either way the
			// copy ends at EOF, not at the deadline above.
			if _, rerr := io.Copy(io.Discard, conn); rerr != nil {
				t.Errorf("%v after %v; want the server to close the connection within %v",
					rerr, time.Since(start).Round(time.Millisecond), bound)
			}
		})
	}
}
