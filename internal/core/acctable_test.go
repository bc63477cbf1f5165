package core

import (
	"reflect"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/placement"
)

// checkAccTable asserts the hardware function table agrees with itself,
// with the placement snapshot and with the boards' region accounting:
//
//   - every live row's route has exactly one primary;
//   - no (board, region) is an endpoint of two routes, or twice of one;
//   - every ready, enabled endpoint on a live board sits on a region that
//     holds a module;
//   - AccIDs lists exactly the live rows, ascending;
//   - PlacementTable's endpoints are the rows' endpoints, one for one;
//   - each live board has at least as many non-empty regions as
//     endpoints (an evicted, still-warming replica may hold one more).
func checkAccTable(t *testing.T, r *rig) {
	t.Helper()
	rt := r.rt
	type slot struct{ board, region int }
	owner := map[slot]AccID{}
	perBoard := make([][]placement.EndpointInfo, len(rt.boards))
	var live []AccID
	for id, e := range rt.accs {
		if e == nil {
			continue
		}
		if e.accID != AccID(id) {
			t.Errorf("row at index %d carries acc_id %d", id, e.accID)
		}
		live = append(live, e.accID)
		primaries := 0
		for _, ep := range e.route.Endpoints() {
			if ep.Primary {
				primaries++
			}
			at := slot{ep.FPGA, ep.Region}
			if prev, dup := owner[at]; dup {
				t.Errorf("board %d region %d is an endpoint of acc_id %d and %d", ep.FPGA, ep.Region, prev, e.accID)
			}
			owner[at] = e.accID
			perBoard[ep.FPGA] = append(perBoard[ep.FPGA], placement.EndpointInfo{
				Acc: uint16(e.accID), HF: e.name, Region: ep.Region, Weight: ep.Weight,
				Ready: ep.Ready, Disabled: ep.Disabled, Primary: ep.Primary,
			})
			dev := rt.boards[ep.FPGA].dev
			if !ep.Ready || ep.Disabled || dev.IsShutdown() {
				continue
			}
			if reg, err := dev.Region(ep.Region); err != nil || reg.State() == fpga.RegionEmpty {
				t.Errorf("acc_id %d: ready, enabled endpoint on board %d region %d has no module (%v)",
					e.accID, ep.FPGA, ep.Region, err)
			}
		}
		if primaries != 1 {
			t.Errorf("acc_id %d: %d primary endpoints, want 1: %+v", e.accID, primaries, e.route.Endpoints())
		}
	}
	if ids := rt.AccIDs(); !reflect.DeepEqual(ids, append([]AccID{}, live...)) {
		t.Errorf("AccIDs = %v, live rows %v", ids, live)
	}
	table := rt.PlacementTable()
	if len(table) != len(perBoard) {
		t.Fatalf("placement table has %d boards, runtime %d", len(table), len(perBoard))
	}
	for b, info := range table {
		want := perBoard[b]
		if want == nil {
			want = []placement.EndpointInfo{}
		}
		if !reflect.DeepEqual(info.Endpoints, want) {
			t.Errorf("board %d: placement endpoints %+v, rows %+v", b, info.Endpoints, want)
		}
		dev := rt.boards[b].dev
		if dev.IsShutdown() {
			continue
		}
		loaded := 0
		for i := 0; i < dev.Regions(); i++ {
			if reg, err := dev.Region(i); err == nil && reg.State() != fpga.RegionEmpty {
				loaded++
			}
		}
		if loaded < len(want) {
			t.Errorf("board %d: %d non-empty regions for %d endpoints", b, loaded, len(want))
		}
	}
}
