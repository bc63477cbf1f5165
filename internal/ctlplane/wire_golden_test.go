package ctlplane

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden from this run")

// TestWireShapesGolden pins the management API's wire: every verb driven
// once against the fake backend, plus at least one failing call per error
// code, with the raw response bodies compared byte for byte against
// testdata/wire.golden. The file was recorded on the hand-written
// handlers, before the verb table replaced them and the mirror types
// merged into core/placement; one line was edited since (an empty
// telemetry.delta stream is refused with the table's uniform "stream is
// required"). A diff here is a change to what operators' scripts parse.
// Regenerate with: go test ./internal/ctlplane -run WireShapesGolden -update
func TestWireShapesGolden(t *testing.T) {
	fb := newFakeBackend()
	fb.tel = telemetry.New(0)
	cc := fb.tel.RegisterCore("tx", 0)
	cc.Inc(telemetry.CounterBatches)
	cc.Add(telemetry.CounterPackets, 8)

	sync := func(fn func()) { fn() }
	newServer := func(cfg Config) *Server {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	main := newServer(Config{Backend: fb, Post: sync, OnShutdown: func() {}})
	noHook := newServer(Config{Backend: fb, Post: sync})
	idle := newServer(Config{Backend: fb, Post: func(func()) {}, CallTimeout: 20 * time.Millisecond})

	var out bytes.Buffer
	post := func(srv *Server, body string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/api/v1", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.serveHTTP(w, req)
		fmt.Fprintf(&out, "> %s\n< %d %s\n", body, w.Code, strings.TrimSuffix(w.Body.String(), "\n"))
	}
	call := func(srv *Server, method, params string) {
		t.Helper()
		body := `{"jsonrpc":"2.0","id":1,"method":"` + method + `"`
		if params != "" {
			body += `,"params":` + params
		}
		post(srv, body+"}")
	}

	// Every verb, in an order that keeps the fake's map-backed state
	// single-valued wherever a reply lists it.
	call(main, "sys.ping", "")
	call(main, "sys.ping", `{"ignored":true}`)
	call(main, "sys.info", "") // empty system: every list is [], never null
	call(main, "sys.info", `[]`)
	call(main, "health.get", "")
	call(main, "nf.register", `{"name":"fw","node":0}`)
	call(main, "nf.register", `{"name":"nat"}`)
	call(main, "acc.load", `{"hf":"rev","node":0}`)
	call(main, "acc.migrate", `{"acc_id":1,"board":1}`)
	call(main, "acc.load", `{"hf":"ipsec-crypto"}`)
	call(main, "sys.info", "")
	call(main, "acc.configure", `{"acc_id":1,"params":"AQID"}`)
	call(main, "fallback.set", `{"hf":"rev","node":0}`)
	call(main, "fallback.clear", `{"hf":"rev"}`)
	call(main, "tune.batch", `{"bytes":1024}`)
	call(main, "tune.auto", "")
	call(main, "tune.auto", `{"state":"on"}`)
	call(main, "tune.auto", `{"state":"status"}`)
	call(main, "tune.auto", `{"state":"off"}`)
	call(main, "health.get", "")
	call(main, "health.get", `{"acc_id":2}`)
	call(main, "stats.get", `{"node":0}`)
	call(main, "stats.get", "")
	call(main, "telemetry.delta", `{"stream":"golden"}`)
	call(main, "telemetry.delta", `{"stream":"golden","wait_ms":0}`)
	call(main, "placement.get", "")
	call(main, "placement.rebalance", "")
	call(main, "acc.replicate", `{"acc_id":1}`)
	call(main, "acc.replicate", `{"acc_id":1,"board":0}`)
	call(main, "acc.evict", `{"acc_id":2}`)
	call(main, "acc.migrate", `{"acc_id":1}`)
	call(main, "board.drain", `{"board":0}`)
	call(main, "board.undrain", `{"board":0}`)
	call(main, "board.offline", `{"board":1}`)
	call(main, "placement.get", "")
	call(main, "nf.unregister", `{"nf_id":1}`)
	call(main, "sys.shutdown", "")

	// -32001: the runtime (or the server's configuration) rejects the call.
	call(main, "acc.load", `{"hf":"missing","node":0}`)
	call(main, "nf.unregister", `{"nf_id":99}`)
	call(main, "acc.evict", `{"acc_id":99}`)
	call(main, "acc.configure", `{"acc_id":99,"params":""}`)
	call(main, "fallback.clear", `{"hf":"none","node":0}`)
	call(main, "tune.batch", `{"bytes":1}`)
	call(main, "health.get", `{"acc_id":99}`)
	call(main, "acc.migrate", `{"acc_id":99}`)
	call(main, "acc.replicate", `{"acc_id":1,"board":7}`)
	call(main, "board.drain", `{"board":7}`)
	call(main, "board.undrain", `{"board":7}`)
	call(main, "board.offline", `{"board":7}`)
	call(noHook, "sys.shutdown", "")
	fb.tel = nil
	call(main, "telemetry.delta", `{"stream":"off"}`)

	// -32602: params that do not decode or fail validation.
	call(main, "nf.register", `{"name":""}`)
	call(main, "nf.register", `{"nam":"typo"}`)
	call(main, "acc.load", `{"hf":"","node":0}`)
	call(main, "fallback.set", `{"hf":""}`)
	call(main, "fallback.clear", `{"hf":""}`)
	call(main, "tune.batch", `{"bytes":"x"}`)
	call(main, "tune.auto", `{"state":"sideways"}`)
	call(main, "telemetry.delta", `{"stream":""}`)
	call(main, "telemetry.delta", `{"stream":"s","wait_ms":-1}`)

	// -32601, -32600, -32700: the envelope itself.
	call(main, "no.such.method", "")
	post(main, `{"jsonrpc":"1.0","id":1,"method":"sys.ping"}`)
	post(main, `{"jsonrpc":"2.0","id":1}`)
	post(main, `[{"jsonrpc":"2.0","id":1,"method":"sys.ping"}]`)
	post(main, `{`)

	// -32000: nobody pumps the loop. sys.ping still answers.
	call(idle, "sys.info", "")
	call(idle, "sys.ping", "")

	// A notification executes and is not answered.
	post(main, `{"jsonrpc":"2.0","method":"nf.register","params":{"name":"quiet"}}`)

	// The GET directory operators discover the surface with.
	w := httptest.NewRecorder()
	main.serveHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1", nil))
	fmt.Fprintf(&out, "> GET\n< %d %s", w.Code, w.Body.String())

	golden := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("wire drifted from %s (re-run with -update to accept):\n%s", golden, lineDiff(string(want), out.String()))
	}
}

// lineDiff lists the lines that differ between two same-script
// transcripts, request line included, so a drift names its verb.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			if i > 0 && i < len(g) && strings.HasPrefix(gl, "< ") {
				fmt.Fprintf(&b, "%s\n", g[i-1])
			}
			fmt.Fprintf(&b, "  want %s\n  got  %s\n", wl, gl)
		}
	}
	return b.String()
}
