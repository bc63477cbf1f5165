package lpm

import (
	"errors"
	"testing"
)

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func TestBasicAddLookup(t *testing.T) {
	tbl := New(0)
	if err := tbl.Add(ip(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(10, 1, 0, 0), 16, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(10, 1, 1, 0), 24, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(10, 1, 1, 128), 25, 4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint32
		hop  uint16
	}{
		{ip(10, 9, 9, 9), 1},
		{ip(10, 1, 9, 9), 2},
		{ip(10, 1, 1, 5), 3},
		{ip(10, 1, 1, 200), 4},
		{ip(10, 1, 1, 127), 3},
	}
	for _, c := range cases {
		hop, err := tbl.Lookup(c.addr)
		if err != nil || hop != c.hop {
			t.Errorf("lookup %08x: got %d/%v want %d", c.addr, hop, err, c.hop)
		}
	}
	if _, err := tbl.Lookup(ip(11, 0, 0, 0)); !errors.Is(err, ErrNoRoute) {
		t.Errorf("miss: %v", err)
	}
}

func TestShorterPrefixDoesNotShadowLonger(t *testing.T) {
	tbl := New(0)
	// Insert the /24 FIRST, then a covering /8: the /24 must survive.
	if err := tbl.Add(ip(10, 1, 1, 0), 24, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 1, 9)); hop != 3 {
		t.Errorf("/24 shadowed by later /8: hop %d", hop)
	}
	if hop, _ := tbl.Lookup(ip(10, 2, 2, 2)); hop != 1 {
		t.Errorf("/8 missing: hop %d", hop)
	}
	// Same inside a tbl8 group: /32 first, then /25.
	if err := tbl.Add(ip(10, 1, 1, 7), 32, 9); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(10, 1, 1, 0), 25, 5); err != nil {
		t.Fatal(err)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 1, 7)); hop != 9 {
		t.Errorf("/32 shadowed by later /25: hop %d", hop)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 1, 8)); hop != 5 {
		t.Errorf("/25 missing: hop %d", hop)
	}
}

func TestUpdateExistingRoute(t *testing.T) {
	tbl := New(0)
	if err := tbl.Add(ip(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(10, 0, 0, 0), 8, 7); err != nil {
		t.Fatal(err)
	}
	if hop, _ := tbl.Lookup(ip(10, 5, 5, 5)); hop != 7 {
		t.Errorf("update not applied: hop %d", hop)
	}
}

func TestValidation(t *testing.T) {
	tbl := New(0)
	if err := tbl.Add(0, 0, 1); !errors.Is(err, ErrBadDepth) {
		t.Errorf("depth 0: %v", err)
	}
	if err := tbl.Add(0, 33, 1); !errors.Is(err, ErrBadDepth) {
		t.Errorf("depth 33: %v", err)
	}
	if err := tbl.Add(0, 8, 0xffff); !errors.Is(err, ErrBadNextHop) {
		t.Errorf("bad hop: %v", err)
	}
}

func TestTbl8Exhaustion(t *testing.T) {
	tbl := New(2) // only two tbl8 groups
	if err := tbl.Add(ip(1, 1, 1, 1), 32, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(1, 1, 2, 1), 32, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ip(1, 1, 3, 1), 32, 3); !errors.Is(err, ErrTbl8Space) {
		t.Errorf("third group: %v", err)
	}
	// Failed adds must not corrupt the route set.
	if hop, _ := tbl.Lookup(ip(1, 1, 1, 1)); hop != 1 {
		t.Errorf("existing route lost: %d", hop)
	}
}

// TestTbl8GroupLimit pins New's refusal of more groups than a tbl24 entry
// can name: group 65536 would alias group 0 on Lookup.
func TestTbl8GroupLimit(t *testing.T) {
	if tbl := New(1 << 16); len(tbl.free8) != 1<<16 {
		t.Errorf("New(65536): %d free groups", len(tbl.free8))
	}
	defer func() {
		if recover() == nil {
			t.Error("New(65537) did not panic")
		}
	}()
	New(1<<16 + 1)
}

// TestShortRoutesHoldNoChunks is the table's cost model at its cheap end:
// routes of depth <= 8 live in the root, whatever they cover.
func TestShortRoutesHoldNoChunks(t *testing.T) {
	tbl := New(0)
	holds := func(want string) {
		t.Helper()
		if got := tbl.String(); got != want {
			t.Errorf("%s, want %s", got, want)
		}
	}
	for depth := uint8(1); depth <= 8; depth++ {
		if err := tbl.Add(0x80000000, depth, uint16(depth)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Add(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	holds("lpm.Table{chunks=0 tbl8Used=0}")
	for addr, want := range map[uint32]uint16{ip(128, 9, 9, 9): 8, ip(129, 0, 0, 0): 7, ip(255, 255, 255, 255): 1, ip(1, 2, 3, 4): 9} {
		if hop, err := tbl.Lookup(addr); err != nil || hop != want {
			t.Errorf("lookup %08x: got %d/%v want %d", addr, hop, err, want)
		}
	}
	// One route deeper than /8 costs its /8 a chunk, and one deeper than
	// /24 a tbl8 group besides.
	if err := tbl.Add(ip(128, 1, 0, 0), 16, 10); err != nil {
		t.Fatal(err)
	}
	holds("lpm.Table{chunks=1 tbl8Used=0}")
	if err := tbl.Add(ip(128, 1, 2, 3), 32, 11); err != nil {
		t.Fatal(err)
	}
	holds("lpm.Table{chunks=1 tbl8Used=1}")
}
