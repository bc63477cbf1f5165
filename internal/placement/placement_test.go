package placement

import (
	"errors"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
)

type nopModule struct{}

func (nopModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	return append(dst, in...), nil
}
func (nopModule) Configure(params []byte) error { return nil }

func spec(name string, luts int) fpga.ModuleSpec {
	return fpga.ModuleSpec{
		Name: name, LUTs: luts, BRAM: 8, ThroughputBps: 40e9,
		DelayCycles: 10, BitstreamBytes: 1 << 20,
		New: func() fpga.Module { return nopModule{} },
	}
}

// fleet builds n boards over one simulation; nodes[i] pins board i's NUMA
// node (default 0).
func fleet(t *testing.T, n int, nodes ...int) (*eventsim.Sim, []*fpga.Device, *Scheduler) {
	t.Helper()
	sim := eventsim.New()
	devs := make([]*fpga.Device, n)
	for i := range devs {
		node := 0
		if i < len(nodes) {
			node = nodes[i]
		}
		d, err := fpga.NewDevice(sim, fpga.Config{ID: i, Node: node})
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	return sim, devs, New(devs)
}

func picks(r *Route, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ep := r.Pick()
		if ep == nil {
			out = append(out, -1)
			continue
		}
		out = append(out, ep.FPGA)
	}
	return out
}

func TestPickWeightedRoundRobin(t *testing.T) {
	r := &Route{acc: 1, hf: "x"}
	r.Add(0, 0, DefaultWeight, true)
	r.Add(1, 0, DefaultWeight, true)
	got := picks(r, 16)
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal-weight picks = %v, want %v", got, want)
		}
	}

	// Shed the first endpoint: 1 batch per turn against the other's 4.
	r.SetWeight(0, 0, ShedWeight)
	counts := map[int]int{}
	for _, b := range picks(r, 20) {
		counts[b]++
	}
	if counts[0] != 4 || counts[1] != 16 {
		t.Errorf("shed split %v, want 4/16 over 20 picks", counts)
	}
}

func TestSetWeightUnchangedKeepsCursor(t *testing.T) {
	// Regression: the health FSM restores DefaultWeight after every
	// healthy batch. If that reset the round-robin credit, Pick would pin
	// to the primary forever.
	r := &Route{acc: 1, hf: "x"}
	r.Add(0, 0, DefaultWeight, true)
	r.Add(1, 0, DefaultWeight, true)
	counts := map[int]int{}
	for i := 0; i < 16; i++ {
		ep := r.Pick()
		counts[ep.FPGA]++
		r.SetWeight(0, 0, DefaultWeight) // no-op restore, every batch
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Errorf("split %v, want 8/8", counts)
	}
}

func TestPickSkipsUnservable(t *testing.T) {
	r := &Route{acc: 1, hf: "x"}
	r.Add(0, 0, DefaultWeight, true)
	r.Add(1, 0, DefaultWeight, false) // warming
	r.Add(2, 0, DefaultWeight, true)

	counts := map[int]int{}
	for _, b := range picks(r, 8) {
		counts[b]++
	}
	if counts[1] != 0 || counts[0] != 4 || counts[2] != 4 {
		t.Errorf("warming endpoint picked: %v", counts)
	}
	if !r.HasPending() {
		t.Error("warming endpoint not pending")
	}
	r.SetReady(1, 0, true)
	if r.HasPending() {
		t.Error("ready endpoint still pending")
	}

	r.Disable(0, 0)
	r.DisableBoard(2)
	if got := picks(r, 3); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("picks with two disabled = %v, want all board 1", got)
	}
	if r.Live() != 1 {
		t.Errorf("live = %d, want 1", r.Live())
	}
	r.Disable(1, 0)
	if ep := r.Pick(); ep != nil {
		t.Errorf("pick with nothing servable = %+v, want nil", ep)
	}
	r.Enable(0, 0)
	if ep := r.Pick(); ep == nil || ep.FPGA != 0 {
		t.Errorf("pick after enable = %+v, want board 0", ep)
	}
}

func TestMarkPrimaryMoves(t *testing.T) {
	r := &Route{acc: 1, hf: "x"}
	r.Add(0, 0, DefaultWeight, true)
	r.Add(1, 2, DefaultWeight, true)
	r.MarkPrimary(0, 0)
	if ep := r.Primary(); ep == nil || ep.FPGA != 0 {
		t.Fatalf("primary %+v", ep)
	}
	r.MarkPrimary(1, 2)
	ep := r.Primary()
	if ep == nil || ep.FPGA != 1 || ep.Region != 2 {
		t.Fatalf("primary after move %+v", ep)
	}
	// Exactly one primary.
	n := 0
	for _, e := range r.Endpoints() {
		if e.Primary {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d primaries, want 1", n)
	}
	r.Remove(0, 0)
	if len(r.Endpoints()) != 1 {
		t.Errorf("%d endpoints after remove, want 1", len(r.Endpoints()))
	}
	if ep := r.Primary(); ep == nil || ep.FPGA != 1 || ep.Region != 2 {
		t.Errorf("primary after removing the endpoint before it: %+v", ep)
	}
	r.Remove(1, 2)
	if ep := r.Primary(); ep != nil {
		t.Errorf("primary after removing it: %+v", ep)
	}
}

func TestPlaceNUMAPreference(t *testing.T) {
	_, _, s := fleet(t, 3, 1, 0, 1)
	// A node-1 request prefers a node-1 board even though board 1 (node
	// 0) has identical resources.
	b, err := s.Place(spec("m", 1000), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Errorf("placed on board %d, want node-local 0", b)
	}
	// Excluding both node-1 boards spills to the remote one.
	b, err = s.Place(spec("m", 1000), 1, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if b != 1 {
		t.Errorf("placed on board %d, want remote 1", b)
	}
}

func TestPlaceRefusals(t *testing.T) {
	_, devs, s := fleet(t, 2)
	if err := s.SetDraining(0, true); err != nil {
		t.Fatal(err)
	}
	b, err := s.Place(spec("m", 1000), 0, nil)
	if err != nil || b != 1 {
		t.Fatalf("draining board not skipped: board %d, %v", b, err)
	}
	devs[1].Shutdown()
	_, err = s.Place(spec("m", 1000), 0, nil)
	if !errors.Is(err, ErrNoFit) {
		t.Fatalf("place with no usable board: %v", err)
	}
	msg := err.Error()
	for _, sub := range []string{"board 0: board draining", "board 1: board lost"} {
		if !strings.Contains(msg, sub) {
			t.Errorf("refusal %q missing %q", msg, sub)
		}
	}

	if err := s.SetDraining(0, false); err != nil {
		t.Fatal(err)
	}
	// Capacity refusal carries the structured numbers.
	_, err = s.Place(spec("big", devs[0].AvailableLUTs()+1), 0, nil)
	if !errors.Is(err, ErrNoFit) {
		t.Fatalf("oversized place: %v", err)
	}
	if !strings.Contains(err.Error(), "insufficient LUT/BRAM") {
		t.Errorf("capacity refusal text: %v", err)
	}

	if err := s.SetDraining(7, true); !errors.Is(err, ErrUnknownBoard) {
		t.Errorf("drain of unknown board: %v", err)
	}
	if _, err := New(nil).Place(spec("m", 1), 0, nil); !errors.Is(err, ErrNoBoards) {
		t.Errorf("empty fleet: %v", err)
	}
}

func TestPlaceSkipsFullBoards(t *testing.T) {
	sim, devs, s := fleet(t, 2)
	// Fill every region on board 0.
	n := devs[0].Regions()
	for i := 0; i < n; i++ {
		if _, err := devs[0].LoadPR(spec("fill", 1000), nil); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(sim.Now() + 100*eventsim.Millisecond)
	b, err := s.Place(spec("m", 1000), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b != 1 {
		t.Errorf("placed on board %d, want 1 (board 0 regions full)", b)
	}
}

func TestBindRouteSnapshot(t *testing.T) {
	_, devs, s := fleet(t, 2, 0, 1)
	r := NewRoute(1, "ipsec", 0, 0)
	if ep := r.Primary(); ep == nil || ep.Ready || ep.FPGA != 0 || ep.Weight != DefaultWeight {
		t.Fatalf("new route endpoint %+v", ep)
	}
	if got := len(r.Endpoints()); got != 1 {
		t.Fatalf("new route has %d endpoints, want 1", got)
	}
	r.SetReady(0, 0, true)
	r.Add(1, 3, DefaultWeight, true)
	s.NoteMigration(0, 1)

	routes := []*Route{r}
	snap := s.Snapshot(routes)
	if n := len(snap[1].Endpoints); n != 1 {
		t.Errorf("endpoints on board 1 = %d, want 1", n)
	}
	if in, out := s.Migrations(1); in != 1 || out != 0 {
		t.Errorf("board 1 migrations = %d/%d", in, out)
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot boards = %d", len(snap))
	}
	if snap[0].State != "alive" || snap[0].Node != 0 || snap[1].Node != 1 {
		t.Errorf("snapshot header %+v", snap[:1])
	}
	if len(snap[0].Endpoints) != 1 || len(snap[1].Endpoints) != 1 {
		t.Fatalf("snapshot endpoints %d/%d, want 1/1", len(snap[0].Endpoints), len(snap[1].Endpoints))
	}
	e0 := snap[0].Endpoints[0]
	if e0.Acc != 1 || e0.HF != "ipsec" || !e0.Primary || !e0.Ready {
		t.Errorf("snapshot endpoint %+v", e0)
	}
	if snap[0].MigratedOut != 1 || snap[1].MigratedIn != 1 {
		t.Errorf("snapshot migration counters %+v %+v", snap[0], snap[1])
	}
	if snap[0].FreeLUTs != devs[0].AvailableLUTs() {
		t.Errorf("snapshot FreeLUTs %d", snap[0].FreeLUTs)
	}

	devs[1].Shutdown()
	r.DisableBoard(1)
	for _, ep := range r.Endpoints() {
		if ep.FPGA == 1 && !ep.Disabled {
			t.Errorf("sweep left endpoint enabled: %+v", ep)
		}
	}
	if h := s.BoardHealthOf(1); h != BoardLost {
		t.Errorf("board 1 health %v, want lost", h)
	}

	// A route the caller no longer passes (an evicted row) is gone from
	// the snapshot; the boards stay.
	snap = s.Snapshot(nil)
	if len(snap) != 2 || len(snap[0].Endpoints) != 0 || len(snap[1].Endpoints) != 0 {
		t.Errorf("snapshot without routes = %+v", snap)
	}
}

func TestPickNilRoute(t *testing.T) {
	var r *Route
	if ep := r.Pick(); ep != nil {
		t.Errorf("nil route pick = %+v", ep)
	}
}
