package faultinject

import (
	"errors"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	for k := Kind(0); k < NumKinds; k++ {
		if p.Fire(k) {
			t.Fatalf("nil plan fired %s", k)
		}
		if p.Injected(k) != 0 || p.StallFor(k) != 0 {
			t.Fatalf("nil plan leaked state for %s", k)
		}
	}
	if !p.Exhausted() {
		t.Error("nil plan should report exhausted")
	}
	if p.String() != "faultinject: disabled" {
		t.Errorf("nil plan string %q", p.String())
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Kind: NumKinds, EveryN: 1},
		{Kind: -1, EveryN: 1},
		{Kind: ModuleError, Prob: 1.5},
		{Kind: ModuleError},
		{Kind: DMAH2CStall, EveryN: 1, Stall: -1},
	}
	for i, s := range cases {
		if _, err := NewPlan(1, s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: error %v, want ErrBadSpec", i, err)
		}
	}
	if _, err := NewPlan(1, Spec{Kind: ModuleError, EveryN: 1}, Spec{Kind: ModuleError, Prob: 0.5}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("duplicate spec: %v", err)
	}
}

func TestEveryNAndCount(t *testing.T) {
	p := MustPlan(42, Spec{Kind: ModuleError, EveryN: 3, Count: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if p.Fire(ModuleError) {
			fired = append(fired, i)
		}
	}
	// EveryN=3 fires on draws 3 and 6; Count=2 stops it there. Draws after
	// exhaustion are not even counted.
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Errorf("fired at %v, want [3 6]", fired)
	}
	if p.Injected(ModuleError) != 2 {
		t.Errorf("injected %d", p.Injected(ModuleError))
	}
	if p.specs[ModuleError].draws != 6 {
		t.Errorf("draws %d, want 6 (draws stop counting once exhausted)", p.specs[ModuleError].draws)
	}
	if !p.Exhausted() {
		t.Error("count-bounded plan should exhaust")
	}
}

func TestProbDeterministicAcrossRuns(t *testing.T) {
	run := func() []bool {
		p := MustPlan(0xD11A, Spec{Kind: DMAH2CError, Prob: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = p.Fire(DMAH2CError)
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeds", i)
		}
		if a[i] {
			fires++
		}
	}
	// 200 draws at p=0.3: expect ~60; allow a wide deterministic band.
	if fires < 30 || fires > 100 {
		t.Errorf("p=0.3 fired %d/200 times", fires)
	}
	// A different seed must give a different schedule.
	p2 := MustPlan(0xD11B, Spec{Kind: DMAH2CError, Prob: 0.3})
	same := true
	for i := range a {
		if p2.Fire(DMAH2CError) != a[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestKindsDrawIndependently(t *testing.T) {
	p := MustPlan(7, Spec{Kind: ModuleHang, EveryN: 2}, Spec{Kind: RegionSEU, EveryN: 3})
	// Interleave draws: ModuleHang must fire on its own 2nd draw no matter
	// how many RegionSEU draws happen in between.
	if p.Fire(ModuleHang) {
		t.Error("hang fired on draw 1")
	}
	for i := 0; i < 5; i++ {
		p.Fire(RegionSEU)
	}
	if !p.Fire(ModuleHang) {
		t.Error("hang did not fire on its 2nd draw")
	}
	if p.Injected(RegionSEU) != 1 {
		t.Errorf("seu injected %d, want 1 (5 draws, EveryN=3)", p.Injected(RegionSEU))
	}
}

func TestStallFor(t *testing.T) {
	p := MustPlan(1, Spec{Kind: DMAC2HStall, EveryN: 1, Stall: 30 * eventsim.Microsecond})
	if got := p.StallFor(DMAC2HStall); got != 30*eventsim.Microsecond {
		t.Errorf("stall %v", got)
	}
	if got := p.StallFor(CompletionStall); got != 0 {
		t.Errorf("unarmed stall %v", got)
	}
}

func TestStringSummary(t *testing.T) {
	p := MustPlan(0xBEEF, Spec{Kind: ModuleError, Prob: 0.25, Count: 4})
	s := p.String()
	for _, want := range []string{"seed=0xbeef", "module-error", "p=0.25", "max=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestCorruptBatchHeader(t *testing.T) {
	batch, err := dhlproto.AppendRecord(nil, 1, 1, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	CorruptBatchHeader(batch)
	var c dhlproto.Cursor
	c.SetBatch(batch)
	var rec dhlproto.Record
	if _, err := c.Next(&rec); !errors.Is(err, dhlproto.ErrCorrupt) {
		t.Errorf("corrupted header decoded without error: %v", err)
	}
	// Short buffers must not panic.
	CorruptBatchHeader([]byte{1, 2})
	CorruptBatchHeader(nil)
}
