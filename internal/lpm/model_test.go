package lpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The reference model: a list of routes and a linear scan. TestQuickVsNaive
// and FuzzLPMVsNaive run the same route programs against it and the table,
// and compare the two after every step.

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

// op is one step of a route program: an Add of prefix/depth, or, with pick
// set, a re-Add with a new hop of whichever live route prefix selects at
// that step.
type op struct {
	pick   bool
	prefix uint32
	depth  uint8
	hop    uint16
}

func add(prefix uint32, depth uint8, hop uint16) op {
	return op{prefix: prefix, depth: depth, hop: hop}
}

const (
	opBytes   = 8
	maxOps    = 48
	modelTbl8 = 4 // few enough groups that programs run out of them

	// foldMask keeps 8 of the 256 /8s (0, 1, 64, 65, ... 193: a /1 covers
	// four of them, a /7 two, a /8 one) and 16 /24s in each, so that
	// decoded programs pile routes over and under each other and hold at
	// most 8 chunks.
	foldMask = 0xC18181FF
)

// decodeOps reads a route program out of arbitrary bytes, eight per step:
// what to do (of four, three add, one re-adds a live route), depth, prefix,
// hop.
func decodeOps(data []byte) []op {
	var ops []op
	for ; len(data) >= opBytes && len(ops) < maxOps; data = data[opBytes:] {
		ops = append(ops, op{
			pick:   data[0]%4 == 3,
			depth:  1 + data[1]%32,
			prefix: binary.BigEndian.Uint32(data[2:6]),
			hop:    binary.BigEndian.Uint16(data[6:8]),
		})
	}
	return ops
}

// encodeOps is decodeOps' inverse, for seeding the fuzz corpus with
// programs written as ops.
func encodeOps(ops []op) []byte {
	var data []byte
	for _, o := range ops {
		kind := byte(0)
		if o.pick {
			kind = 3
		}
		data = append(data, kind, o.depth-1)
		data = binary.BigEndian.AppendUint32(data, o.prefix)
		data = binary.BigEndian.AppendUint16(data, o.hop)
	}
	return data
}

// applyNaive is a step the table accepted, on the reference model.
func applyNaive(routes []naiveRoute, o op) []naiveRoute {
	for i, r := range routes {
		if r.prefix == o.prefix && r.depth == o.depth {
			routes[i].hop = o.hop
			return routes
		}
	}
	return append(routes, naiveRoute{o.prefix, o.depth, o.hop})
}

// deeperThan counts the distinct depth-bit prefixes that hold a route
// deeper than depth: what the table should be spending chunks (8) and tbl8
// groups (24) on.
func deeperThan(routes []naiveRoute, depth uint8, within map[uint32]bool) int {
	for _, r := range routes {
		if r.depth > depth {
			within[r.prefix&mask(depth)] = true
		}
	}
	return len(within)
}

// wantErr is what the step must return, worked out from the model alone.
func wantErr(routes []naiveRoute, o op) error {
	switch {
	case o.hop == 0xffff:
		return ErrBadNextHop
	case o.depth <= 24:
		return nil
	}
	groups := map[uint32]bool{}
	if deeperThan(routes, 24, groups) == modelTbl8 && !groups[o.prefix&mask(24)] {
		return ErrTbl8Space
	}
	return nil
}

// runProgram applies ops to tbl and to routes in step, and after each step
// compares the error, what the table has allocated, and Lookup at both
// edges of every live route and of the step's own prefix, just outside
// them, and at random addresses.
func runProgram(tbl *Table, routes []naiveRoute, ops []op) ([]naiveRoute, error) {
	rng := rand.New(rand.NewSource(1))
	for step, o := range ops {
		if o.pick && len(routes) > 0 {
			r := routes[o.prefix%uint32(len(routes))]
			o.prefix, o.depth = r.prefix, r.depth
		}
		o.prefix &= foldMask & mask(o.depth)
		want := wantErr(routes, o)
		got := tbl.Add(o.prefix, o.depth, o.hop)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d %+v: %s", step, o, fmt.Sprintf(format, args...))
		}
		if !errors.Is(got, want) {
			return routes, fail("returned %v, want %v", got, want)
		}
		if want == nil {
			routes = applyNaive(routes, o)
		}
		chunks := deeperThan(routes, 8, map[uint32]bool{})
		groups := deeperThan(routes, 24, map[uint32]bool{})
		wantStr := fmt.Sprintf("lpm.Table{chunks=%d tbl8Used=%d}", chunks, groups)
		if s := tbl.String(); s != wantStr || len(tbl.free8) != modelTbl8-groups {
			return routes, fail("%s with %d free groups, want %s", s, len(tbl.free8), wantStr)
		}

		var addrs []uint32
		for _, r := range append(routes, naiveRoute{prefix: o.prefix, depth: o.depth}) {
			last := r.prefix | ^mask(r.depth)
			addrs = append(addrs, r.prefix, last, r.prefix-1, last+1, r.prefix|rng.Uint32()&^mask(r.depth))
		}
		for i := 0; i < 32; i++ {
			addrs = append(addrs, rng.Uint32(), rng.Uint32()&foldMask)
		}
		for _, addr := range addrs {
			wantHop, ok := naiveLookup(routes, addr)
			gotHop, err := tbl.Lookup(addr)
			if ok != (err == nil) || ok && gotHop != wantHop {
				return routes, fail("lookup %08x: got %d/%v, want %d/%v", addr, gotHop, err, wantHop, ok)
			}
		}
	}
	return routes, nil
}

// forcedOps are the cases the root level creates, run at the head of every
// program: chunks seeded from a valid root entry and from an empty one, by
// routes that stop in tbl24 and by routes that need a tbl8 group; routes of
// depth <= 8 landing before, over and after those chunks; an Add refused
// for want of a tbl8 group.
var forcedOps = []op{
	// A /8, then deeper routes in it: each chunk inherits its /8.
	add(ip(64, 0, 0, 0), 8, 1), add(ip(64, 1, 0, 0), 16, 2),
	add(ip(65, 0, 0, 0), 8, 3), add(ip(65, 1, 1, 128), 25, 4),
	// Chunks over empty root entries, then shorter routes laid over them.
	add(ip(128, 1, 0, 0), 16, 5), add(ip(129, 129, 1, 7), 32, 6),
	add(ip(128, 0, 0, 0), 7, 7), add(ip(128, 0, 0, 0), 1, 8),
	// A /2 after a /8 must leave the /8 in the root for a later chunk.
	add(ip(192, 0, 0, 0), 8, 9), add(ip(192, 0, 0, 0), 2, 10),
	add(ip(193, 0, 0, 0), 8, 11), add(ip(193, 128, 0, 0), 9, 12),
	// Re-adds: a new hop for a root route under a chunk, and for a deep one.
	add(ip(128, 0, 0, 0), 7, 13), add(ip(129, 129, 1, 7), 32, 14),
	// Two more groups is all there are; the next Add is refused in a /8
	// that has no chunk and must not leave one behind, and one in a group
	// already held still goes in.
	add(ip(1, 0, 0, 1), 32, 15), add(ip(1, 0, 1, 1), 32, 16),
	add(ip(0, 1, 1, 1), 32, 18), add(ip(1, 0, 0, 2), 31, 19),
}

// TestQuickVsNaive checks the table against the linear scan over
// interleaved Add and re-Add sequences: forcedOps, then a random program on
// the same table.
func TestQuickVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for run := 0; run < 20; run++ {
		tbl := New(modelTbl8)
		routes, err := runProgram(tbl, nil, forcedOps)
		if err != nil {
			t.Fatalf("forced program: %v", err)
		}
		data := make([]byte, opBytes*maxOps)
		rng.Read(data)
		if _, err := runProgram(tbl, routes, decodeOps(data)); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// FuzzLPMVsNaive runs decoded route programs against the linear scan.
func FuzzLPMVsNaive(f *testing.F) {
	f.Add(encodeOps(forcedOps))
	f.Add(encodeOps([]op{add(0, 1, 1), add(ip(128, 0, 0, 0), 1, 2), add(ip(1, 1, 1, 1), 32, 3), {pick: true, hop: 4}}))
	f.Add(encodeOps([]op{add(ip(64, 1, 1, 0), 24, 1), add(ip(64, 0, 0, 0), 4, 2), {pick: true, hop: 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runProgram(New(modelTbl8), nil, decodeOps(data)); err != nil {
			t.Fatal(err)
		}
	})
}
