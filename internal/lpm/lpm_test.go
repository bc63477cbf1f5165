package lpm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
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
	if tbl.Routes() != 4 {
		t.Errorf("routes %d", tbl.Routes())
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
	if tbl.Routes() != 1 {
		t.Errorf("routes %d after update", tbl.Routes())
	}
}

func TestDeleteRestoresShadowed(t *testing.T) {
	tbl := New(0)
	_ = tbl.Add(ip(10, 0, 0, 0), 8, 1)
	_ = tbl.Add(ip(10, 1, 0, 0), 16, 2)
	_ = tbl.Add(ip(10, 1, 1, 200), 32, 3)
	if err := tbl.Delete(ip(10, 1, 0, 0), 16); err != nil {
		t.Fatal(err)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 5, 5)); hop != 1 {
		t.Errorf("covering /8 not restored: hop %d", hop)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 1, 200)); hop != 3 {
		t.Errorf("/32 lost on rebuild: hop %d", hop)
	}
	if err := tbl.Delete(ip(99, 0, 0, 0), 8); !errors.Is(err, ErrNoRoute) {
		t.Errorf("delete missing: %v", err)
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
	if err := tbl.Delete(0, 0); !errors.Is(err, ErrBadDepth) {
		t.Errorf("delete depth 0: %v", err)
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

func TestLookupBulk(t *testing.T) {
	tbl := New(0)
	_ = tbl.Add(ip(10, 0, 0, 0), 8, 5)
	addrs := []uint32{ip(10, 1, 1, 1), ip(11, 0, 0, 1), ip(10, 255, 0, 1)}
	hops := make([]uint16, 3)
	tbl.LookupBulk(addrs, hops)
	if hops[0] != 5 || hops[1] != 0xffff || hops[2] != 5 {
		t.Errorf("bulk hops %v", hops)
	}
}

// naiveLPM is the reference implementation for property testing.
type naiveRoute struct {
	prefix uint32
	depth  uint8
	hop    uint16
}

func naiveLookup(routes []naiveRoute, addr uint32) (uint16, bool) {
	best := -1
	var hop uint16
	for _, r := range routes {
		m := mask(r.depth)
		if addr&m == r.prefix&m && int(r.depth) > best {
			best = int(r.depth)
			hop = r.hop
		}
	}
	return hop, best >= 0
}

// TestQuickVsNaive property-checks the DIR-24-8 table against a linear
// scan over random route sets and random probes.
func TestQuickVsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := New(64)
		var routes []naiveRoute
		for i := 0; i < 40; i++ {
			depth := uint8(1 + r.Intn(32))
			if i%5 == 0 {
				// Every run lays /1../8 routes under and over longer
				// ones: the spans install writes millions of tbl24
				// entries for.
				depth = uint8(1 + r.Intn(8))
			}
			prefix := r.Uint32() & mask(depth)
			hop := uint16(r.Intn(1000))
			if err := tbl.Add(prefix, depth, hop); err != nil {
				if errors.Is(err, ErrTbl8Space) {
					continue
				}
				return false
			}
			// Later adds of the same prefix/depth overwrite; mirror that.
			replaced := false
			for j := range routes {
				if routes[j].prefix == prefix&mask(depth) && routes[j].depth == depth {
					routes[j].hop = hop
					replaced = true
					break
				}
			}
			if !replaced {
				routes = append(routes, naiveRoute{prefix, depth, hop})
			}
		}
		for i := 0; i < 200; i++ {
			addr := r.Uint32()
			if i%3 == 0 && len(routes) > 0 {
				// Bias probes into covered space.
				rt := routes[r.Intn(len(routes))]
				addr = rt.prefix | (r.Uint32() &^ mask(rt.depth))
			}
			wantHop, wantOK := naiveLookup(routes, addr)
			gotHop, err := tbl.Lookup(addr)
			gotOK := err == nil
			if wantOK != gotOK {
				t.Logf("addr %08x: ok mismatch want %v got %v", addr, wantOK, gotOK)
				return false
			}
			if wantOK && wantHop != gotHop {
				t.Logf("addr %08x: hop mismatch want %d got %d", addr, wantHop, gotHop)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Values: nil, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
