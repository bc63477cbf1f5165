package ctlplane

import (
	"testing"

	"github.com/opencloudnext/dhl-go/internal/core"
)

// TestFleetMethods drives the placement/board surface end to end against
// the fake backend: snapshot, explicit and scheduler-chosen migration,
// replication, drain/undrain and hard offline.
func TestFleetMethods(t *testing.T) {
	fb := newFakeBackend()
	c, _ := newTestServer(t, fb)

	var load struct {
		AccID core.AccID `json:"acc_id"`
	}
	if err := c.Call("acc.load", map[string]any{"hf": "rev", "node": 0}, &load); err != nil {
		t.Fatal(err)
	}

	var pl PlacementResult
	if err := c.Call("placement.get", nil, &pl); err != nil {
		t.Fatal(err)
	}
	if len(pl.Boards) != 2 {
		t.Fatalf("boards = %d, want 2", len(pl.Boards))
	}
	if pl.Boards[0].State != "alive" || len(pl.Boards[0].Endpoints) != 1 {
		t.Errorf("board 0 %+v", pl.Boards[0])
	}
	if pl.Boards[0].Endpoints[0].HF != "rev" || !pl.Boards[0].Endpoints[0].Primary {
		t.Errorf("endpoint %+v", pl.Boards[0].Endpoints[0])
	}

	// Explicit-target migration, then scheduler-chosen (board omitted).
	var mig struct {
		Board int `json:"board"`
	}
	if err := c.Call("acc.migrate", map[string]any{"acc_id": load.AccID, "board": 1}, &mig); err != nil {
		t.Fatal(err)
	}
	if mig.Board != 1 || fb.accs[load.AccID].FPGA != 1 {
		t.Errorf("migrate -> board %d, backend fpga %d", mig.Board, fb.accs[load.AccID].FPGA)
	}
	if err := c.Call("acc.migrate", map[string]any{"acc_id": load.AccID}, &mig); err != nil {
		t.Fatal(err)
	}
	if mig.Board != 0 {
		t.Errorf("auto migrate -> board %d, want 0", mig.Board)
	}

	var rep struct {
		Board int `json:"board"`
	}
	if err := c.Call("acc.replicate", map[string]any{"acc_id": load.AccID}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Board != 1 {
		t.Errorf("replicate -> board %d, want 1", rep.Board)
	}

	// Unknown acc / unknown board surface as CodeOpFailed.
	err := c.Call("acc.migrate", map[string]any{"acc_id": 99}, &mig)
	if rpcErr, ok := err.(*Error); !ok || rpcErr.Code != CodeOpFailed {
		t.Errorf("migrate unknown acc: %v", err)
	}
	err = c.Call("board.offline", map[string]any{"board": 7}, nil)
	if rpcErr, ok := err.(*Error); !ok || rpcErr.Code != CodeOpFailed {
		t.Errorf("offline unknown board: %v", err)
	}

	// Drain board 0 (hosting the acc): the rebalance moves it to board 1.
	var drained struct {
		Moved int `json:"moved"`
	}
	if err := c.Call("board.drain", map[string]any{"board": 0}, &drained); err != nil {
		t.Fatal(err)
	}
	if drained.Moved != 1 || fb.accs[load.AccID].FPGA != 1 {
		t.Errorf("drain moved %d, backend fpga %d", drained.Moved, fb.accs[load.AccID].FPGA)
	}
	if err := c.Call("placement.get", nil, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Boards[0].State != "draining" {
		t.Errorf("board 0 state %q, want draining", pl.Boards[0].State)
	}
	if err := c.Call("board.undrain", map[string]any{"board": 0}, nil); err != nil {
		t.Fatal(err)
	}

	// Kill board 1; the acc rebalances back to 0.
	var off struct {
		Moved int `json:"moved"`
	}
	if err := c.Call("board.offline", map[string]any{"board": 1}, &off); err != nil {
		t.Fatal(err)
	}
	if off.Moved != 1 || fb.accs[load.AccID].FPGA != 0 {
		t.Errorf("offline moved %d, backend fpga %d", off.Moved, fb.accs[load.AccID].FPGA)
	}

	// Nothing left out of place: rebalance is a no-op.
	var reb struct {
		Moved int `json:"moved"`
	}
	if err := c.Call("placement.rebalance", nil, &reb); err != nil {
		t.Fatal(err)
	}
	if reb.Moved != 0 {
		t.Errorf("rebalance moved %d, want 0", reb.Moved)
	}
}
