package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// Verb is one management API entry, defined once: the server dispatches
// on Name and enforces Params, the GET directory and dhl-inspect's help
// print Name, Params and Doc, dhl-inspect fills Params from positional
// arguments, and DESIGN.md §11's table is tested against all of it.
type Verb struct {
	Name   string
	Doc    string
	Params []Param
	// handle runs on an HTTP goroutine; anything touching the Backend
	// goes through Server.Dispatch.
	handle func(s *Server, raw json.RawMessage) (any, *Error)
}

// Param is one field of a verb's parameter object.
type Param struct {
	Name     string // the JSON field name
	Kind     Kind
	Required bool
}

// Kind is how a parameter's value is written on the wire.
type Kind string

// Parameter kinds. Bytes ride as base64, encoding/json's []byte
// convention.
const (
	KindString Kind = "string"
	KindInt    Kind = "int"
	KindBytes  Kind = "bytes"
)

// verb builds the entry of a verb that is one Backend operation: decode
// and check P as decoded does, run once on the event loop, a rejection
// mapped by opError, R as the result.
func verb[P, R any](name, doc string, run func(Backend, P) (R, error)) Verb {
	return decoded(name, doc, func(s *Server, p P) (any, *Error) {
		var (
			res R
			err error
		)
		if derr := s.Dispatch(func() { res, err = run(s.cfg.Backend, p) }); derr != nil {
			return nil, derr
		}
		if err != nil {
			return nil, opError(err)
		}
		return res, nil
	})
}

// decoded builds the entry of a verb whose parameter object is P: P's
// fields are the verb's Params, declared nowhere else, and handle sees
// them strictly decoded with every required one present.
func decoded[P any](name, doc string, handle func(*Server, P) (any, *Error)) Verb {
	params := paramsOf(reflect.TypeFor[P]())
	return Verb{Name: name, Doc: doc, Params: params, handle: func(s *Server, raw json.RawMessage) (any, *Error) {
		var p P
		if rerr := decodeParams(raw, &p, params); rerr != nil {
			return nil, rerr
		}
		return handle(s, p)
	}}
}

// paramsOf reads a parameter struct's fields: the JSON name from the
// json tag, the kind from the Go type (a pointer marks a field whose
// absence the verb tells apart from its zero value), `ctl:"required"`
// for a field the caller must send.
func paramsOf(t reflect.Type) []Param {
	var params []Param
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		p := Param{Name: name, Required: f.Tag.Get("ctl") == "required"}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case ft.Kind() == reflect.String:
			p.Kind = KindString
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Uint8:
			p.Kind = KindBytes
		case reflect.Int <= ft.Kind() && ft.Kind() <= reflect.Uint64:
			p.Kind = KindInt
		default:
			panic(fmt.Sprintf("ctlplane: parameter %s of %s has no wire kind", f.Name, t))
		}
		params = append(params, p)
	}
	return params
}

// decodeParams strictly decodes raw into dst — unknown fields are
// rejected so operator typos ("time_us" for "timeout_us") fail loudly
// instead of silently applying defaults — and then refuses when a
// required parameter was not sent. The check is on presence, not on the
// decoded value: zero is a real request (board 0, timeout 0) and must
// not be what a forgotten field turns into. An empty required string
// counts as absent. A verb without parameters ignores whatever it is
// sent, as sys.ping always has.
func decodeParams(raw json.RawMessage, dst any, params []Param) *Error {
	if len(params) == 0 {
		return nil
	}
	var sent map[string]json.RawMessage
	if len(raw) > 0 && string(raw) != "null" {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return &Error{Code: CodeInvalidParams, Message: err.Error()}
		}
		if err := json.Unmarshal(raw, &sent); err != nil {
			return &Error{Code: CodeInvalidParams, Message: err.Error()}
		}
	}
	for _, p := range params {
		v := string(sent[p.Name])
		if p.Required && (v == "" || v == "null" || p.Kind == KindString && v == `""`) {
			return &Error{Code: CodeInvalidParams, Message: p.Name + " is required"}
		}
	}
	return nil
}

// verbs is the /api/v1 method table, sorted by name at init. Names are
// namespaced by subsystem and never reused with different semantics;
// breaking a verb's shape means a new endpoint version, not a silent
// change here. sys.ping and sys.shutdown never reach the event loop and
// telemetry.delta reaches it once per poll, so they are not verb(...)
// entries.
var verbs = []Verb{
	{Name: "sys.ping", Doc: "liveness probe; answered by the HTTP layer without touching the event loop",
		handle: func(*Server, json.RawMessage) (any, *Error) { return okReply, nil }},
	verb("sys.info", "system overview: nodes, knobs, module DB, loaded accelerators", sysInfo),
	{Name: "sys.shutdown", Doc: "acknowledge, then trigger the serving process's shutdown hook", handle: handleShutdown},
	verb("nf.register", "register an NF instance: {name, node} -> {nf_id}",
		func(b Backend, p struct {
			Name string `json:"name" ctl:"required"`
			Node int    `json:"node"`
		}) (res struct {
			NFID core.NFID `json:"nf_id"`
		}, err error) {
			res.NFID, err = b.Register(p.Name, p.Node)
			return res, err
		}),
	verb("nf.unregister", "drain and remove an NF instance: {nf_id}",
		func(b Backend, p struct {
			NFID core.NFID `json:"nf_id" ctl:"required"`
		}) (okResult, error) {
			return okReply, b.Unregister(p.NFID)
		}),
	verb("acc.load", "load a module from the DB onto a PR region: {hf, node} -> {acc_id}",
		func(b Backend, p hfParams) (res struct {
			AccID core.AccID `json:"acc_id"`
		}, err error) {
			res.AccID, err = b.LoadPR(p.HF, p.Node)
			return res, err
		}),
	verb("acc.evict", "unload an accelerator and free its region: {acc_id}",
		func(b Backend, p struct {
			AccID core.AccID `json:"acc_id" ctl:"required"`
		}) (okResult, error) {
			return okReply, b.Evict(p.AccID)
		}),
	verb("acc.configure", "send a configuration blob: {acc_id, params (base64)}",
		func(b Backend, p struct {
			AccID  core.AccID `json:"acc_id" ctl:"required"`
			Params []byte     `json:"params" ctl:"required"`
		}) (okResult, error) {
			return okReply, b.AccConfigure(p.AccID, p.Params)
		}),
	verb("fallback.set", "install the module DB's software implementation as fallback: {hf, node}",
		func(b Backend, p hfParams) (okResult, error) { return okReply, b.InstallFallback(p.HF, p.Node) }),
	verb("fallback.clear", "remove an installed software fallback: {hf, node}",
		func(b Backend, p hfParams) (okResult, error) { return okReply, b.ClearFallback(p.HF, p.Node) }),
	verb("tune.batch", "retarget the Packer's max batch size: {bytes} -> {batch_bytes}",
		func(b Backend, p struct {
			Bytes int `json:"bytes" ctl:"required"`
		}) (res struct {
			BatchBytes int `json:"batch_bytes"`
		}, err error) {
			err = b.SetBatchBytes(p.Bytes)
			res.BatchBytes = b.BatchBytes()
			return res, err
		}),
	verb("tune.auto", "adaptive batching autotuner: {state: on|off|status} -> controller status", tuneAuto),
	verb("health.get", "health FSM state for one or all accelerators: {acc_id?} -> {accs}", healthGet),
	verb("stats.get", "one node's transfer-core conservation ledger plus NF flow-table stats: {node} -> stats", statsGet),
	decoded("telemetry.delta", "long-poll telemetry activity since the stream's last call: {stream, wait_ms}", telemetryDelta),

	verb("placement.get", "fleet snapshot: every board's state, free resources and routed endpoints -> {boards}",
		func(b Backend, _ struct{}) (PlacementResult, error) {
			// A copy onto a non-nil slice: an empty fleet is [], not null.
			return PlacementResult{Boards: append([]placement.BoardInfo{}, b.PlacementTable()...)}, nil
		}),
	verb("placement.rebalance", "move accelerators off lost/draining boards: -> {moved}",
		func(b Backend, _ struct{}) (res movedResult, err error) {
			res.Moved, err = b.Rebalance()
			return res, err
		}),
	verb("acc.migrate", "live-migrate an accelerator's primary to another board: {acc_id, board?} -> {board}",
		func(b Backend, p accBoardParams) (res boardResult, err error) {
			res.Board, err = b.Migrate(p.AccID, p.board())
			return res, err
		}),
	verb("acc.replicate", "load a warm replica on another board and add it to the rotation: {acc_id, board?} -> {board}",
		func(b Backend, p accBoardParams) (res boardResult, err error) {
			res.Board, err = b.Replicate(p.AccID, p.board())
			return res, err
		}),
	verb("board.drain", "refuse new placements on a board and migrate its accelerators away: {board} -> {moved}",
		func(b Backend, p boardParams) (res movedResult, err error) {
			res.Moved, err = b.DrainBoard(p.Board)
			return res, err
		}),
	verb("board.undrain", "return a draining board to service: {board}",
		func(b Backend, p boardParams) (okResult, error) { return okReply, b.UndrainBoard(p.Board) }),
	verb("board.offline", "hard-kill a board and rebalance off it: {board} -> {moved}",
		func(b Backend, p boardParams) (res movedResult, err error) {
			res.Moved, err = b.OfflineBoard(p.Board)
			return res, err
		}),
}

func init() {
	sort.Slice(verbs, func(i, j int) bool { return verbs[i].Name < verbs[j].Name })
}

// Verbs returns the method table in name order.
func Verbs() []Verb { return append([]Verb(nil), verbs...) }

// Lookup finds a verb by name.
func Lookup(name string) (Verb, bool) {
	for _, v := range verbs {
		if v.Name == name {
			return v, true
		}
	}
	return Verb{}, false
}

// Parameter shapes more than one verb takes. hfParams and boardParams
// are aliases, not defined types: encoding/json quotes the destination
// type's name in its decode errors, those reach the wire, and clients
// have only ever seen the anonymous form.
type (
	hfParams = struct {
		HF   string `json:"hf" ctl:"required"`
		Node int    `json:"node"`
	}
	boardParams = struct {
		Board int `json:"board" ctl:"required"`
	}
	// accBoardParams: a missing board lets the placement scheduler choose.
	accBoardParams struct {
		AccID core.AccID `json:"acc_id" ctl:"required"`
		Board *int       `json:"board"`
	}
)

func (p accBoardParams) board() int {
	if p.Board == nil {
		return -1
	}
	return *p.Board
}

// Result shapes. The exported ones are what dhl-inspect decodes; the
// rest only ever meet a JSON encoder.
type (
	okResult struct {
		OK bool `json:"ok"`
	}
	movedResult struct {
		Moved int `json:"moved"`
	}
	boardResult struct {
		Board int `json:"board"`
	}

	// InfoResult is the sys.info answer.
	InfoResult struct {
		Nodes        int            `json:"nodes"`
		BatchBytes   int            `json:"batch_bytes"`
		HFTable      []string       `json:"hf_table"`
		ModuleDB     []string       `json:"module_db"`
		Accelerators []core.AccInfo `json:"accelerators"`
	}

	// AccHealth is one health.get row: the accelerator's table row and
	// its health FSM report, flattened into one object.
	AccHealth struct {
		core.AccInfo
		core.HealthReport
	}

	// HealthResult is the health.get answer.
	HealthResult struct {
		Accs []AccHealth `json:"accs"`
	}

	// PlacementResult is the placement.get answer.
	PlacementResult struct {
		Boards []placement.BoardInfo `json:"boards"`
	}

	// statsResult is the stats.get answer: the node's transfer-core
	// conservation ledger (flattened, the shape the endpoint always had)
	// plus the registered NF flow tables' counters — additive, so clients
	// decoding into core.TransferStats keep working.
	statsResult struct {
		core.TransferStats
		Flowtabs []flowtab.Info `json:"flowtabs"`
	}

	// DeltaResult is one telemetry.delta answer: the activity since the
	// stream's previous call (Delta semantics from the telemetry package:
	// counter/histogram differences, current gauges, only new spans), and
	// whether the long poll returned because of activity or deadline.
	DeltaResult struct {
		Stream string              `json:"stream"`
		Active bool                `json:"active"`
		Delta  *telemetry.Snapshot `json:"delta"`
	}
)

var okReply = okResult{OK: true}

// sysInfo answers sys.info. Every list is present even when empty, and
// the name lists are sorted copies: the Backend's own slices stay as
// they are.
func sysInfo(b Backend, _ struct{}) (InfoResult, error) {
	res := InfoResult{
		Nodes: b.Nodes(), BatchBytes: b.BatchBytes(),
		HFTable:      append([]string{}, b.HFTable()...),
		ModuleDB:     append([]string{}, b.ModuleDB()...),
		Accelerators: []core.AccInfo{},
	}
	sort.Strings(res.HFTable)
	sort.Strings(res.ModuleDB)
	for _, acc := range b.AccIDs() {
		if info, err := b.AccInfo(acc); err == nil {
			res.Accelerators = append(res.Accelerators, info)
		}
	}
	return res, nil
}

func handleShutdown(s *Server, _ json.RawMessage) (any, *Error) {
	if s.cfg.OnShutdown == nil {
		return nil, &Error{Code: CodeOpFailed, Message: "this server has no shutdown hook"}
	}
	s.shutdownOnce.Do(func() {
		// After the response is on the wire; the hook tears the listener
		// down, so it must not run on this handler's stack.
		go s.cfg.OnShutdown()
	})
	return okReply, nil
}

// tuneAuto answers tune.auto. State selects the action: "on" enables the
// controller, "off" disables it (rolling its overrides back), and "" or
// "status" only reads. Every variant returns the controller's status.
func tuneAuto(b Backend, p struct {
	State string `json:"state,omitempty"`
}) (tuner.Status, error) {
	var err error
	switch p.State {
	case "on":
		err = b.AutoTuneEnable()
	case "off":
		err = b.AutoTuneDisable()
	case "", "status":
	default:
		return tuner.Status{}, &Error{Code: CodeInvalidParams,
			Message: fmt.Sprintf("ctlplane: tune.auto state %q (want on, off or status)", p.State)}
	}
	return b.AutoTuneStatus(), err
}

func healthGet(b Backend, p struct {
	AccID *core.AccID `json:"acc_id"`
}) (HealthResult, error) {
	ids := b.AccIDs()
	if p.AccID != nil {
		ids = []core.AccID{*p.AccID}
	}
	res := HealthResult{Accs: []AccHealth{}}
	for _, acc := range ids {
		info, err := b.AccInfo(acc)
		if err != nil {
			return res, err
		}
		rep, err := b.AccHealth(acc)
		if err != nil {
			return res, err
		}
		res.Accs = append(res.Accs, AccHealth{info, rep})
	}
	return res, nil
}

func statsGet(b Backend, p struct {
	Node int `json:"node"`
}) (statsResult, error) {
	st, err := b.Stats(p.Node)
	return statsResult{st, append([]flowtab.Info{}, b.FlowTables()...)}, err
}

// telemetry.delta long-poll parameters.
const (
	// deltaPollEvery is the real-time re-snapshot cadence while waiting
	// for activity.
	deltaPollEvery = 25 * time.Millisecond
	// deltaMaxWait caps a single long-poll's wait_ms.
	deltaMaxWait = 60 * time.Second
	// streamIdleEvict drops a stream baseline untouched this long.
	streamIdleEvict = 5 * time.Minute
)

// telemetryDelta answers telemetry.delta; Stream is a client-chosen
// baseline name.
func telemetryDelta(s *Server, p struct {
	Stream string `json:"stream" ctl:"required"`
	WaitMs int    `json:"wait_ms"`
}) (any, *Error) {
	if p.WaitMs < 0 {
		return nil, &Error{Code: CodeInvalidParams, Message: "wait_ms must be >= 0"}
	}
	wait := time.Duration(p.WaitMs) * time.Millisecond
	if wait > deltaMaxWait {
		wait = deltaMaxWait
	}
	deadline := time.Now().Add(wait)
	for {
		// Snapshots evaluate pull gauges that read simulation-owned state,
		// so they must run on the event loop like every other operation.
		var snap *telemetry.Snapshot
		if derr := s.Dispatch(func() { snap = s.cfg.Backend.Snapshot() }); derr != nil {
			return nil, derr
		}
		if snap == nil {
			return nil, &Error{Code: CodeOpFailed, Message: "telemetry is not enabled on this system"}
		}
		prev := s.streamBaseline(p.Stream)
		delta := snap.Delta(prev)
		active := len(delta.Spans) > 0 ||
			delta.CounterTotal(telemetry.CounterBatches) > 0 ||
			delta.Health.Degraded+delta.Health.Quarantined+delta.Health.Recovered > 0
		remaining := time.Until(deadline)
		if active || remaining <= 0 {
			s.setStreamBaseline(p.Stream, snap)
			return DeltaResult{Stream: p.Stream, Active: active, Delta: delta}, nil
		}
		if remaining < deltaPollEvery {
			time.Sleep(remaining)
		} else {
			time.Sleep(deltaPollEvery)
		}
	}
}

// streamBaseline reports the stream's previous snapshot (nil on first
// use) and opportunistically evicts baselines idle past streamIdleEvict
// so abandoned stream names do not accumulate.
func (s *Server) streamBaseline(stream string) *telemetry.Snapshot {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	now := time.Now()
	for name, st := range s.streams {
		if name != stream && now.Sub(st.lastUsed) > streamIdleEvict {
			delete(s.streams, name)
		}
	}
	st, ok := s.streams[stream]
	if !ok {
		return nil
	}
	st.lastUsed = now
	return st.prev
}

func (s *Server) setStreamBaseline(stream string, snap *telemetry.Snapshot) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	st, ok := s.streams[stream]
	if !ok {
		st = &streamState{}
		s.streams[stream] = st
	}
	st.prev = snap
	st.lastUsed = time.Now()
}
