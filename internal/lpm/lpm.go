// Package lpm implements an IPv4 longest-prefix-match table in the DIR-24-8
// style used by DPDK's rte_lpm — a 2^24-entry direct-indexed table for the
// first 24 bits plus allocated second-level tables of 256 entries for longer
// prefixes.
//
// The paper's Table I baselines L3fwd-lpm at 60 cycles/lookup; this package
// is the functional substrate behind that baseline NF.
package lpm

import (
	"errors"
	"fmt"
)

const (
	tbl24Size   = 1 << 24
	tbl8Entries = 256
)

// Entry layout (uint32):
//
//	bit 31    valid
//	bit 30    points-to-tbl8 (tbl24 only)
//	bits 29..24  depth the route was installed at (1..32)
//	bits 15..0   next hop (or tbl8 group index)
const (
	flagValid  uint32 = 1 << 31
	flagTbl8   uint32 = 1 << 30
	depthShift        = 24
	depthMask  uint32 = 0x3f << depthShift
	valueMask  uint32 = 0xffff
)

// Errors returned by route operations.
var (
	ErrBadDepth   = errors.New("lpm: prefix depth must be in [1,32]")
	ErrNoRoute    = errors.New("lpm: no route")
	ErrTbl8Space  = errors.New("lpm: out of tbl8 groups")
	ErrBadNextHop = errors.New("lpm: next hop must fit in 16 bits and not be 0xffff")
)

func encode(nextHop uint16, depth uint8, tbl8 bool) uint32 {
	e := flagValid | uint32(depth)<<depthShift | uint32(nextHop)
	if tbl8 {
		e |= flagTbl8
	}
	return e
}

func depthOf(e uint32) uint8 { return uint8((e & depthMask) >> depthShift) }

// Table is a DIR-24-8 longest-prefix-match table. Create with New; Table is
// not safe for concurrent mutation (lookups are safe concurrently with each
// other, matching rte_lpm's reader model).
type Table struct {
	tbl24 []uint32
	tbl8  [][]uint32
	free8 []int

	routes map[routeKey]uint16
}

type routeKey struct {
	prefix uint32
	depth  uint8
}

// New creates an empty table with capacity for maxTbl8 second-level groups.
// maxTbl8 <= 0 selects 256 groups (rte_lpm's default).
func New(maxTbl8 int) *Table {
	if maxTbl8 <= 0 {
		maxTbl8 = 256
	}
	t := &Table{
		tbl24:  make([]uint32, tbl24Size),
		tbl8:   make([][]uint32, maxTbl8),
		free8:  make([]int, 0, maxTbl8),
		routes: make(map[routeKey]uint16),
	}
	for i := maxTbl8 - 1; i >= 0; i-- {
		t.free8 = append(t.free8, i)
	}
	return t
}

func mask(depth uint8) uint32 {
	return ^uint32(0) << (32 - uint32(depth))
}

// Add installs a route for prefix/depth -> nextHop. Longer prefixes shadow
// shorter ones; re-adding an existing prefix updates the next hop.
func (t *Table) Add(prefix uint32, depth uint8, nextHop uint16) error {
	if depth < 1 || depth > 32 {
		return ErrBadDepth
	}
	if nextHop == 0xffff {
		return ErrBadNextHop
	}
	prefix &= mask(depth)
	if err := t.install(prefix, depth, nextHop); err != nil {
		return err
	}
	t.routes[routeKey{prefix, depth}] = nextHop
	return nil
}

func (t *Table) install(prefix uint32, depth uint8, nextHop uint16) error {
	if depth <= 24 {
		start := prefix >> 8
		count := uint32(1) << (24 - uint32(depth))
		route := encode(nextHop, depth, false)
		span := t.tbl24[start : start+count]
		for i, e := range span {
			switch {
			case e == 0:
				// Empty, the common case: a /1 covers 8 M of these.
				span[i] = route
			case e&flagTbl8 != 0:
				// Update entries in the tbl8 group covered by shorter or
				// equal-depth routes.
				g := t.tbl8[e&valueMask]
				for j := range g {
					if g[j]&flagValid == 0 || depthOf(g[j]) <= depth {
						g[j] = route
					}
				}
			case e&flagValid == 0 || depthOf(e) <= depth:
				span[i] = route
			}
		}
		return nil
	}

	idx24 := prefix >> 8
	e := t.tbl24[idx24]
	var group []uint32
	var gi uint32
	if e&flagTbl8 != 0 {
		gi = e & valueMask
		group = t.tbl8[gi]
	} else {
		if len(t.free8) == 0 {
			return ErrTbl8Space
		}
		gi = uint32(t.free8[len(t.free8)-1])
		t.free8 = t.free8[:len(t.free8)-1]
		group = make([]uint32, tbl8Entries)
		if e&flagValid != 0 {
			for j := range group {
				group[j] = e // inherit the covering shorter route
			}
		}
		t.tbl8[gi] = group
		t.tbl24[idx24] = flagValid | flagTbl8 | gi
	}
	start := int(uint8(prefix))
	count := 1 << (32 - uint32(depth))
	for i := 0; i < count; i++ {
		j := start + i
		if group[j]&flagValid == 0 || depthOf(group[j]) <= depth {
			group[j] = encode(nextHop, depth, false)
		}
	}
	return nil
}

// Delete removes a route. Shadowed shorter prefixes are restored by
// rebuilding from the route set; rte_lpm restores in place, but a rebuild
// is semantically identical and route updates are off the reproduced hot
// path.
func (t *Table) Delete(prefix uint32, depth uint8) error {
	if depth < 1 || depth > 32 {
		return ErrBadDepth
	}
	prefix &= mask(depth)
	key := routeKey{prefix, depth}
	if _, ok := t.routes[key]; !ok {
		return ErrNoRoute
	}
	delete(t.routes, key)
	t.rebuild()
	return nil
}

func (t *Table) rebuild() {
	maxTbl8 := len(t.tbl8)
	for i := range t.tbl24 {
		t.tbl24[i] = 0
	}
	t.tbl8 = make([][]uint32, maxTbl8)
	t.free8 = t.free8[:0]
	for i := maxTbl8 - 1; i >= 0; i-- {
		t.free8 = append(t.free8, i)
	}
	// Install shortest-depth-first so longer prefixes override correctly.
	for d := uint8(1); d <= 32; d++ {
		for k, nh := range t.routes {
			if k.depth == d {
				// install cannot run out of tbl8 groups during a shrinking
				// rebuild, so the error is unreachable here.
				_ = t.install(k.prefix, k.depth, nh)
			}
		}
	}
}

// Lookup returns the next hop for addr, or ErrNoRoute.
func (t *Table) Lookup(addr uint32) (uint16, error) {
	e := t.tbl24[addr>>8]
	if e&flagValid == 0 {
		return 0, ErrNoRoute
	}
	if e&flagTbl8 != 0 {
		e = t.tbl8[e&valueMask][uint8(addr)]
		if e&flagValid == 0 {
			return 0, ErrNoRoute
		}
	}
	return uint16(e & valueMask), nil
}

// LookupBulk resolves a batch of addresses; misses yield 0xffff.
func (t *Table) LookupBulk(addrs []uint32, hops []uint16) {
	n := min(len(addrs), len(hops))
	for i := 0; i < n; i++ {
		h, err := t.Lookup(addrs[i])
		if err != nil {
			hops[i] = 0xffff
			continue
		}
		hops[i] = h
	}
}

// Routes reports the number of installed routes.
func (t *Table) Routes() int { return len(t.routes) }

// String summarizes the table for diagnostics.
func (t *Table) String() string {
	used := 0
	for _, g := range t.tbl8 {
		if g != nil {
			used++
		}
	}
	return fmt.Sprintf("lpm.Table{routes=%d tbl8Used=%d}", len(t.routes), used)
}
