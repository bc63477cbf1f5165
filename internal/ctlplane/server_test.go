package ctlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// fakeBackend implements Backend in memory; a real-system integration
// test lives in the root package where dhl.System is visible.
type fakeBackend struct {
	nextNF     core.NFID
	nfs        map[core.NFID]string
	nextAcc    core.AccID
	accs       map[core.AccID]core.AccInfo
	fallbacks  map[string]bool
	batchBytes int
	tel        *telemetry.Registry
	statsErr   error

	drained    map[int]bool
	lost       map[int]bool
	migrations int

	autotune bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		nfs: make(map[core.NFID]string), accs: make(map[core.AccID]core.AccInfo),
		fallbacks: make(map[string]bool), batchBytes: 4096,
	}
}

func (f *fakeBackend) Register(name string, node int) (core.NFID, error) {
	f.nextNF++
	f.nfs[f.nextNF] = name
	return f.nextNF, nil
}

func (f *fakeBackend) Unregister(id core.NFID) error {
	if _, ok := f.nfs[id]; !ok {
		return errors.New("unknown nf")
	}
	delete(f.nfs, id)
	return nil
}

func (f *fakeBackend) LoadPR(hf string, node int) (core.AccID, error) {
	if hf == "missing" {
		return 0, errors.New("module not in DB")
	}
	f.nextAcc++
	f.accs[f.nextAcc] = core.AccInfo{AccID: f.nextAcc, Name: hf, Node: node, Ready: true}
	return f.nextAcc, nil
}

func (f *fakeBackend) Evict(acc core.AccID) error {
	if _, ok := f.accs[acc]; !ok {
		return errors.New("unknown acc")
	}
	delete(f.accs, acc)
	return nil
}

func (f *fakeBackend) AccConfigure(acc core.AccID, params []byte) error {
	if _, ok := f.accs[acc]; !ok {
		return errors.New("unknown acc")
	}
	return nil
}

func (f *fakeBackend) InstallFallback(hf string, node int) error {
	f.fallbacks[hf] = true
	return nil
}

func (f *fakeBackend) ClearFallback(hf string, node int) error {
	if !f.fallbacks[hf] {
		return errors.New("no fallback installed")
	}
	delete(f.fallbacks, hf)
	return nil
}

func (f *fakeBackend) SetBatchBytes(b int) error {
	if b < 128 {
		return errors.New("too small")
	}
	f.batchBytes = b
	return nil
}

func (f *fakeBackend) BatchBytes() int { return f.batchBytes }

func (f *fakeBackend) AccIDs() []core.AccID {
	var ids []core.AccID
	for acc := core.AccID(1); acc <= f.nextAcc; acc++ {
		if _, ok := f.accs[acc]; ok {
			ids = append(ids, acc)
		}
	}
	return ids
}

func (f *fakeBackend) AccInfo(acc core.AccID) (core.AccInfo, error) {
	info, ok := f.accs[acc]
	if !ok {
		return core.AccInfo{}, errors.New("unknown acc")
	}
	return info, nil
}

func (f *fakeBackend) AccHealth(acc core.AccID) (core.HealthReport, error) {
	if _, ok := f.accs[acc]; !ok {
		return core.HealthReport{}, errors.New("unknown acc")
	}
	return core.HealthReport{Health: core.HealthHealthy}, nil
}

func (f *fakeBackend) Stats(node int) (core.TransferStats, error) {
	if f.statsErr != nil {
		return core.TransferStats{}, f.statsErr
	}
	return core.TransferStats{PktsPacked: 42, PktsDistributed: 42}, nil
}

func (f *fakeBackend) Nodes() int { return 1 }

func (f *fakeBackend) HFTable() []string {
	var names []string
	for _, info := range f.accs {
		names = append(names, info.Name)
	}
	return names
}

func (f *fakeBackend) ModuleDB() []string { return []string{"rev", "ipsec-crypto"} }

func (f *fakeBackend) FlowTables() []flowtab.Info {
	return []flowtab.Info{{Name: "nat-outbound", Stats: flowtab.Stats{Entries: 7, Capacity: 1024}}}
}

func (f *fakeBackend) Snapshot() *telemetry.Snapshot {
	if f.tel == nil {
		return nil
	}
	return f.tel.Snapshot()
}

// The fake autotuner: a bool plus a canned status.
func (f *fakeBackend) AutoTuneEnable() error {
	f.autotune = true
	return nil
}

func (f *fakeBackend) AutoTuneDisable() error {
	f.autotune = false
	return nil
}

func (f *fakeBackend) AutoTuneStatus() tuner.Status {
	return tuner.Status{Enabled: f.autotune, Windows: 3, GrowDecisions: 1}
}

// The fake fleet: two boards, board state tracked in maps, migrations
// counted but not modeled.
func (f *fakeBackend) boardOK(board int) error {
	if board < 0 || board >= 2 {
		return errors.New("unknown board")
	}
	return nil
}

func (f *fakeBackend) PlacementTable() []placement.BoardInfo {
	out := make([]placement.BoardInfo, 2)
	for i := range out {
		state := "alive"
		if f.drained[i] {
			state = "draining"
		}
		if f.lost[i] {
			state = "lost"
		}
		out[i] = placement.BoardInfo{
			Board: i, DeviceID: i, State: state, FreeRegions: 4,
			Endpoints: []placement.EndpointInfo{},
		}
	}
	for acc, info := range f.accs {
		b := info.FPGA
		if b < 0 || b >= 2 {
			continue
		}
		out[b].Endpoints = append(out[b].Endpoints, placement.EndpointInfo{
			Acc: uint16(acc), HF: info.Name, Region: info.Region, Primary: true, Ready: info.Ready,
		})
	}
	return out
}

func (f *fakeBackend) Migrate(acc core.AccID, board int) (int, error) {
	info, ok := f.accs[acc]
	if !ok {
		return -1, errors.New("unknown acc")
	}
	if board < 0 {
		board = 1 - info.FPGA
	}
	if err := f.boardOK(board); err != nil {
		return -1, err
	}
	info.FPGA = board
	f.accs[acc] = info
	f.migrations++
	return board, nil
}

func (f *fakeBackend) Replicate(acc core.AccID, board int) (int, error) {
	info, ok := f.accs[acc]
	if !ok {
		return -1, errors.New("unknown acc")
	}
	if board < 0 {
		board = 1 - info.FPGA
	}
	return board, f.boardOK(board)
}

func (f *fakeBackend) Rebalance() (int, error) {
	moved := 0
	for acc, info := range f.accs {
		if f.lost[info.FPGA] || f.drained[info.FPGA] {
			if _, err := f.Migrate(acc, -1); err == nil {
				moved++
			}
		}
	}
	return moved, nil
}

func (f *fakeBackend) DrainBoard(board int) (int, error) {
	if err := f.boardOK(board); err != nil {
		return 0, err
	}
	if f.drained == nil {
		f.drained = make(map[int]bool)
	}
	f.drained[board] = true
	return f.Rebalance()
}

func (f *fakeBackend) UndrainBoard(board int) error {
	if err := f.boardOK(board); err != nil {
		return err
	}
	delete(f.drained, board)
	return nil
}

func (f *fakeBackend) OfflineBoard(board int) (int, error) {
	if err := f.boardOK(board); err != nil {
		return 0, err
	}
	if f.lost == nil {
		f.lost = make(map[int]bool)
	}
	f.lost[board] = true
	return f.Rebalance()
}

// newTestServer wires a fake backend behind a synchronous Post (the
// protocol tests need no event loop) and returns a ready client.
func newTestServer(t *testing.T, fb *fakeBackend) (*Client, *Server) {
	t.Helper()
	srv, err := New(Config{Backend: fb, Post: func(fn func()) { fn() }})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := Dial(hs.URL)
	t.Cleanup(func() { _ = c.Close() })
	return c, srv
}

func TestRoundTripMethods(t *testing.T) {
	fb := newFakeBackend()
	c, _ := newTestServer(t, fb)

	if err := c.Call("sys.ping", nil, nil); err != nil {
		t.Fatal(err)
	}

	var reg struct {
		NFID core.NFID `json:"nf_id"`
	}
	if err := c.Call("nf.register", map[string]any{"name": "fw", "node": 0}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.NFID != 1 {
		t.Fatalf("nf_id = %d", reg.NFID)
	}

	var load struct {
		AccID core.AccID `json:"acc_id"`
	}
	if err := c.Call("acc.load", map[string]any{"hf": "rev", "node": 0}, &load); err != nil {
		t.Fatal(err)
	}

	var info InfoResult
	if err := c.Call("sys.info", nil, &info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 1 || info.BatchBytes != 4096 || len(info.Accelerators) != 1 {
		t.Errorf("info %+v", info)
	}
	if len(info.ModuleDB) != 2 || info.ModuleDB[0] != "ipsec-crypto" {
		t.Errorf("module db %v not sorted", info.ModuleDB)
	}

	var tuned struct {
		BatchBytes int `json:"batch_bytes"`
	}
	if err := c.Call("tune.batch", map[string]any{"bytes": 1024}, &tuned); err != nil {
		t.Fatal(err)
	}
	if tuned.BatchBytes != 1024 || fb.batchBytes != 1024 {
		t.Errorf("batch_bytes %d / backend %d", tuned.BatchBytes, fb.batchBytes)
	}

	var health HealthResult
	if err := c.Call("health.get", nil, &health); err != nil {
		t.Fatal(err)
	}
	if len(health.Accs) != 1 || health.Accs[0].Health != core.HealthHealthy {
		t.Errorf("health %+v", health)
	}

	var st core.TransferStats
	if err := c.Call("stats.get", map[string]any{"node": 0}, &st); err != nil {
		t.Fatal(err)
	}
	if st.PktsPacked != 42 {
		t.Errorf("stats %+v", st)
	}

	// The same call carries the registered flow tables, additively: the
	// plain TransferStats decode above must keep working, and a client
	// that asks for the flowtabs field gets the per-table counters.
	var stFull statsResult
	if err := c.Call("stats.get", map[string]any{"node": 0}, &stFull); err != nil {
		t.Fatal(err)
	}
	if stFull.PktsPacked != 42 {
		t.Errorf("wrapped stats %+v", stFull.TransferStats)
	}
	if len(stFull.Flowtabs) != 1 || stFull.Flowtabs[0].Name != "nat-outbound" || stFull.Flowtabs[0].Entries != 7 {
		t.Errorf("flowtabs %+v", stFull.Flowtabs)
	}

	if err := c.Call("acc.evict", map[string]any{"acc_id": load.AccID}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("nf.unregister", map[string]any{"nf_id": reg.NFID}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpFailuresSurfaceAsCodeOpFailed(t *testing.T) {
	fb := newFakeBackend()
	c, _ := newTestServer(t, fb)

	err := c.Call("acc.load", map[string]any{"hf": "missing", "node": 0}, nil)
	var rerr *Error
	if !errors.As(err, &rerr) || rerr.Code != CodeOpFailed {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(rerr.Message, "module not in DB") {
		t.Errorf("message %q lost the cause", rerr.Message)
	}
	err = c.Call("nf.unregister", map[string]any{"nf_id": 99}, nil)
	if !errors.As(err, &rerr) || rerr.Code != CodeOpFailed {
		t.Fatalf("err = %v", err)
	}
}

func TestProtocolErrors(t *testing.T) {
	fb := newFakeBackend()
	c, srv := newTestServer(t, fb)

	var rerr *Error
	if err := c.Call("no.such.method", nil, nil); !errors.As(err, &rerr) || rerr.Code != CodeMethodNotFound {
		t.Errorf("unknown method: %v", err)
	}
	if err := c.Call("nf.register", map[string]any{"name": ""}, nil); !errors.As(err, &rerr) || rerr.Code != CodeInvalidParams {
		t.Errorf("empty name: %v", err)
	}
	if err := c.Call("nf.register", map[string]any{"nam": "typo"}, nil); !errors.As(err, &rerr) || rerr.Code != CodeInvalidParams {
		t.Errorf("unknown field: %v", err)
	}
	if err := c.Call("telemetry.delta", map[string]any{"stream": "s"}, nil); !errors.As(err, &rerr) || rerr.Code != CodeOpFailed {
		t.Errorf("telemetry off: %v", err)
	}

	// Raw-wire cases the client cannot produce.
	postTo := func(srv *Server, body string) rpcResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/api/v1", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.serveHTTP(w, req)
		var resp rpcResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatalf("decoding %q response: %v", body, err)
		}
		return resp
	}
	post := func(body string) rpcResponse { t.Helper(); return postTo(srv, body) }
	if resp := post("{"); resp.Error == nil || resp.Error.Code != CodeParse {
		t.Errorf("truncated JSON: %+v", resp.Error)
	}
	if resp := post(`[{"jsonrpc":"2.0","id":1,"method":"sys.ping"}]`); resp.Error == nil || resp.Error.Code != CodeInvalidRequest {
		t.Errorf("batch: %+v", resp.Error)
	}
	if resp := post(`{"jsonrpc":"1.0","id":1,"method":"sys.ping"}`); resp.Error == nil || resp.Error.Code != CodeInvalidRequest {
		t.Errorf("wrong version: %+v", resp.Error)
	}
	if resp := post(`{"jsonrpc":"2.0","id":1}`); resp.Error == nil || resp.Error.Code != CodeInvalidRequest {
		t.Errorf("missing method: %+v", resp.Error)
	}

	// A required parameter left out is refused by presence, before
	// anything reaches the event loop: a forgotten field must not decode
	// to zero and hard-kill board 0. One row per
	// required field of the table; zero values sent explicitly stay legal.
	posted := 0
	counted, err := New(Config{Backend: fb, Post: func(fn func()) { posted++; fn() }})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct{ method, params, field string }{
		{"nf.register", `{"node":0}`, "name"},
		{"nf.unregister", `{}`, "nf_id"},
		{"acc.load", `{"node":0}`, "hf"},
		{"acc.evict", `null`, "acc_id"},
		{"acc.configure", `{"params":"AQID"}`, "acc_id"},
		{"acc.configure", `{"acc_id":1}`, "params"},
		{"fallback.set", `{}`, "hf"},
		{"fallback.clear", `{"node":0}`, "hf"},
		{"tune.batch", `{}`, "bytes"},
		{"telemetry.delta", `{"wait_ms":5}`, "stream"},
		{"acc.migrate", `{"board":1}`, "acc_id"},
		{"acc.replicate", `{}`, "acc_id"},
		{"board.drain", `{}`, "board"},
		{"board.undrain", `{}`, "board"},
		{"board.offline", `{"board":null}`, "board"},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.method+"."+row.field] = true
		resp := postTo(counted, `{"jsonrpc":"2.0","id":1,"method":"`+row.method+`","params":`+row.params+`}`)
		if resp.Error == nil || resp.Error.Code != CodeInvalidParams || resp.Error.Message != row.field+" is required" {
			t.Errorf("%s %s: %+v, want %d %q", row.method, row.params, resp.Error, CodeInvalidParams, row.field+" is required")
		}
	}
	if posted != 0 || len(fb.lost)+len(fb.drained)+len(fb.nfs)+len(fb.accs) != 0 {
		t.Errorf("refused calls reached the backend: %d posted, state %+v", posted, fb)
	}
	for _, v := range Verbs() {
		for _, p := range v.Params {
			if p.Required && !covered[v.Name+"."+p.Name] {
				t.Errorf("%s: required parameter %q has no refusal row above", v.Name, p.Name)
			}
		}
	}
	// The zero value itself is a request like any other.
	if err := c.Call("board.undrain", map[string]any{"board": 0}, nil); err != nil {
		t.Errorf("explicit zero refused: %v", err)
	}

	// Notifications (no id) execute but get 204.
	req := httptest.NewRequest(http.MethodPost, "/api/v1",
		strings.NewReader(`{"jsonrpc":"2.0","method":"nf.register","params":{"name":"quiet","node":0}}`))
	w := httptest.NewRecorder()
	srv.serveHTTP(w, req)
	if w.Code != http.StatusNoContent {
		t.Errorf("notification status %d", w.Code)
	}
	if len(fb.nfs) != 1 {
		t.Errorf("notification did not execute: %v", fb.nfs)
	}

	// GET serves the method directory.
	req = httptest.NewRequest(http.MethodGet, "/api/v1", nil)
	w = httptest.NewRecorder()
	srv.serveHTTP(w, req)
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte("telemetry.delta")) {
		t.Errorf("directory: %d %q", w.Code, w.Body.String())
	}
}

func TestLoopIdleTimeout(t *testing.T) {
	fb := newFakeBackend()
	// Post drops the function: nothing ever drives the loop.
	srv, err := New(Config{Backend: fb, Post: func(fn func()) {}, CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := Dial(hs.URL)
	defer c.Close()

	var rerr *Error
	if cerr := c.Call("sys.info", nil, nil); !errors.As(cerr, &rerr) || rerr.Code != CodeLoopIdle {
		t.Fatalf("err = %v", cerr)
	}
	// sys.ping stays transport-level: it must answer even with a dead loop.
	if err := c.Call("sys.ping", nil, nil); err != nil {
		t.Fatalf("ping with dead loop: %v", err)
	}
}

func TestShutdownHook(t *testing.T) {
	fb := newFakeBackend()
	fired := make(chan struct{})
	srv, err := New(Config{Backend: fb, Post: func(fn func()) { fn() },
		OnShutdown: func() { close(fired) }})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := Dial(hs.URL)
	defer c.Close()

	if err := c.Call("sys.shutdown", nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hook never fired")
	}
	// Idempotent: a second call succeeds without re-firing the once.
	if err := c.Call("sys.shutdown", nil, nil); err != nil {
		t.Fatal(err)
	}

	// A server without the hook reports the op as unsupported.
	c2, _ := newTestServer(t, fb)
	var rerr *Error
	if err := c2.Call("sys.shutdown", nil, nil); !errors.As(err, &rerr) || rerr.Code != CodeOpFailed {
		t.Errorf("no hook: %v", err)
	}
}

func TestTelemetryDeltaLongPoll(t *testing.T) {
	fb := newFakeBackend()
	fb.tel = telemetry.New(0)
	cc := fb.tel.RegisterCore("tx", 0)
	c, _ := newTestServer(t, fb)

	// First call with no activity and no wait: inactive, establishes the
	// stream baseline.
	var d DeltaResult
	if err := c.Call("telemetry.delta", map[string]any{"stream": "t"}, &d); err != nil {
		t.Fatal(err)
	}
	if d.Active {
		t.Fatalf("fresh stream active: %+v", d)
	}

	// Activity arriving mid-poll wakes the long poll before its deadline.
	go func() {
		time.Sleep(60 * time.Millisecond)
		cc.Inc(telemetry.CounterBatches)
		cc.Add(telemetry.CounterPackets, 8)
	}()
	start := time.Now()
	if err := c.Call("telemetry.delta", map[string]any{"stream": "t", "wait_ms": 5000}, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Active {
		t.Fatal("activity not detected")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("long poll slept to deadline: %v", elapsed)
	}
	if got := d.Delta.CounterTotal(telemetry.CounterPackets); got != 8 {
		t.Errorf("delta packets = %d", got)
	}

	// The baseline advanced: a third call sees only new activity.
	if err := c.Call("telemetry.delta", map[string]any{"stream": "t"}, &d); err != nil {
		t.Fatal(err)
	}
	if d.Active || d.Delta.CounterTotal(telemetry.CounterPackets) != 0 {
		t.Errorf("baseline did not advance: %+v", d)
	}

	// Independent streams keep independent baselines.
	if err := c.Call("telemetry.delta", map[string]any{"stream": "fresh"}, &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Delta.CounterTotal(telemetry.CounterPackets); got != 8 {
		t.Errorf("fresh stream delta packets = %d", got)
	}
}

func TestDialAddrForms(t *testing.T) {
	cases := map[string]string{
		":9090":                       "http://:9090/api/v1",
		"box:9090":                    "http://box:9090/api/v1",
		"http://box:9090":             "http://box:9090/api/v1",
		"http://box:9090/api/v1":      "http://box:9090/api/v1",
		"https://box/custom/endpoint": "https://box/custom/endpoint",
	}
	for in, want := range cases {
		if got := Dial(in).URL(); got != want {
			t.Errorf("Dial(%q) = %q, want %q", in, got, want)
		}
	}
}
