package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	dhl "github.com/opencloudnext/dhl-go"
)

// TestBuildParams: positional -args fill a verb's parameters in the
// table's declaration order, an optional tail may be left off, and
// everything else is refused before a request is sent.
func TestBuildParams(t *testing.T) {
	for _, tc := range []struct {
		cmd, args string
		want      map[string]any
		wantErr   string
	}{
		{cmd: "sys.info", want: map[string]any{}},
		{cmd: "acc.load", args: "ipsec-crypto,1", want: map[string]any{"hf": "ipsec-crypto", "node": 1}},
		{cmd: "acc.load", args: "ipsec-crypto", want: map[string]any{"hf": "ipsec-crypto"}},
		{cmd: "acc.migrate", args: " 3 , 1 ", want: map[string]any{"acc_id": 3, "board": 1}},
		{cmd: "acc.migrate", args: "3", want: map[string]any{"acc_id": 3}},
		{cmd: "acc.configure", args: "1,AQID", want: map[string]any{"acc_id": 1, "params": "AQID"}},
		{cmd: "telemetry.delta", args: "s,250", want: map[string]any{"stream": "s", "wait_ms": 250}},
		{cmd: "tune.auto", want: map[string]any{}},
		{cmd: "health.get", want: map[string]any{}},
		{cmd: "board.offline", args: "0", want: map[string]any{"board": 0}},

		{cmd: "board.offline", wantErr: `needs "board"`},
		{cmd: "acc.configure", args: "1", wantErr: `needs "params"`},
		{cmd: "tune.batch", args: "6k", wantErr: `"bytes" must be an integer`},
		{cmd: "acc.migrate", args: "1,0,2", wantErr: "at most 2 argument(s)"},
		{cmd: "sys.ping", args: "x", wantErr: "at most 0 argument(s)"},
		{cmd: "acc.lod", args: "x", wantErr: `unknown command "acc.lod"`},
	} {
		got, err := buildParams(tc.cmd, tc.args)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s %q: err %v, want %q", tc.cmd, tc.args, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s %q: %v", tc.cmd, tc.args, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s %q: %v, want %v", tc.cmd, tc.args, got, tc.want)
		}
	}
}

// TestHelpListsWhatTheServerServes: -cmd help and GET /api/v1 are two
// renderings of one table, so they name exactly the same verbs.
func TestHelpListsWhatTheServerServes(t *testing.T) {
	sys, err := dhl.Open(dhl.SystemConfig{}, dhl.WithControlPlane(), dhl.WithoutSettle())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sys.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = exp.Close() }()
	resp, err := http.Get("http://" + exp.Addr() + "/api/v1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dir struct {
		Methods []string `json:"methods"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dir); err != nil {
		t.Fatal(err)
	}
	var served []string
	for _, m := range dir.Methods {
		name, _, _ := strings.Cut(m, " ")
		served = append(served, name)
	}

	var out bytes.Buffer
	printCommandTable(&out)
	var helped []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		helped = append(helped, strings.Fields(line)[0])
	}
	if len(served) == 0 || !reflect.DeepEqual(helped, served) {
		t.Errorf("-cmd help lists %v\nGET /api/v1 serves %v", helped, served)
	}
}
