// Package lpm implements an IPv4 longest-prefix-match table in the DIR-24-8
// style used by DPDK's rte_lpm — a direct-indexed table for the first 24
// bits plus allocated second-level tables of 256 entries for longer
// prefixes — with the 2^24 first-level entries reached through a 256-entry
// root, one entry per /8, so that a table costs what its routes cost:
//
//	1 KB    root (plus 2 KB of chunk pointers), inside Table
//	256 KB  per /8 that holds a route deeper than /8: its 2^16-entry tbl24 chunk
//	1 KB    per tbl8 group: one per /24 that holds a route deeper than /24
//
// Routes of depth <= 8 live in the root and allocate nothing: the two /1
// selectors of the IPsec gateway's default SA are 256 stores, and Table I's
// L3fwd route set is two chunks. A lookup reads the chunk of its /8 when
// there is one and the root entry when there is not.
//
// The paper's Table I baselines L3fwd-lpm at 60 cycles/lookup; this package
// is the functional substrate behind that baseline NF.
package lpm

import (
	"errors"
	"fmt"
)

const (
	rootEntries  = 1 << 8  // one per /8
	chunkEntries = 1 << 16 // tbl24 entries under one /8
	tbl8Entries  = 256
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
	// root[i] is the deepest route of depth <= 8 covering i.0.0.0/8, or 0.
	// chunks[i] is that /8's stretch of tbl24, present while a route
	// deeper than /8 lies in it; it is seeded from root[i] and every later
	// install keeps it current, so it alone answers for the /8.
	root   [rootEntries]uint32
	chunks [rootEntries]*chunk
	tbl8   [][]uint32
	free8  []int
}

type chunk [chunkEntries]uint32

// New creates an empty table with capacity for maxTbl8 second-level groups.
// maxTbl8 <= 0 selects 256 groups (rte_lpm's default); more than 65536
// cannot be addressed and panics.
func New(maxTbl8 int) *Table {
	if maxTbl8 <= 0 {
		maxTbl8 = 256
	}
	if maxTbl8 > int(valueMask)+1 {
		panic(fmt.Sprintf("lpm: %d tbl8 groups, a tbl24 entry can name at most %d", maxTbl8, valueMask+1))
	}
	t := &Table{
		tbl8:  make([][]uint32, maxTbl8),
		free8: make([]int, 0, maxTbl8),
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
	route := encode(nextHop, depth, false)
	hi := prefix >> 24
	if depth <= 8 {
		// The root entries the route covers, and under each the chunk, if
		// any, that answers in its place.
		for i := hi; i < hi+1<<(8-depth); i++ {
			if depthOf(t.root[i]) <= depth {
				t.root[i] = route
			}
			if c := t.chunks[i]; c != nil {
				t.cover(c[:], route, depth)
			}
		}
		return nil
	}
	if depth <= 24 {
		start := uint32(uint16(prefix >> 8))
		t.cover(t.chunk(hi)[start:start+1<<(24-depth)], route, depth)
		return nil
	}

	e := t.entry24(prefix)
	var group []uint32
	if e&flagTbl8 != 0 {
		group = t.tbl8[e&valueMask]
	} else {
		// Refuse before the chunk exists: a failed Add leaves the table
		// as it was.
		if len(t.free8) == 0 {
			return ErrTbl8Space
		}
		gi := uint32(t.free8[len(t.free8)-1])
		t.free8 = t.free8[:len(t.free8)-1]
		group = make([]uint32, tbl8Entries)
		if e&flagValid != 0 {
			for j := range group {
				group[j] = e // inherit the covering shorter route
			}
		}
		t.tbl8[gi] = group
		t.chunk(hi)[uint16(prefix>>8)] = flagValid | flagTbl8 | gi
	}
	start := int(uint8(prefix))
	count := 1 << (32 - uint32(depth))
	for i := 0; i < count; i++ {
		j := start + i
		if group[j]&flagValid == 0 || depthOf(group[j]) <= depth {
			group[j] = route
		}
	}
	return nil
}

// chunk returns the tbl24 stretch of the /8 numbered hi, creating it as a
// copy of the root entry it takes over from.
func (t *Table) chunk(hi uint32) *chunk {
	c := t.chunks[hi]
	if c == nil {
		c = new(chunk)
		if e := t.root[hi]; e != 0 {
			for i := range c {
				c[i] = e
			}
		}
		t.chunks[hi] = c
	}
	return c
}

// cover lays a route of depth <= 24 over a run of tbl24 entries and the
// tbl8 groups under them, wherever nothing deeper is installed.
func (t *Table) cover(span []uint32, route uint32, depth uint8) {
	for i, e := range span {
		switch {
		case e == 0:
			// Empty, the common case in a fresh chunk.
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
}

// entry24 reads addr's first-level entry: out of the chunk of its /8 when
// there is one, else the root entry that stands for the whole /8.
func (t *Table) entry24(addr uint32) uint32 {
	if c := t.chunks[addr>>24]; c != nil {
		return c[uint16(addr>>8)]
	}
	return t.root[addr>>24]
}

// find returns the entry that answers for addr, through its tbl8 group
// when it has one; flagValid is clear when no route covers addr.
func (t *Table) find(addr uint32) uint32 {
	e := t.entry24(addr)
	if e&flagTbl8 != 0 {
		e = t.tbl8[e&valueMask][uint8(addr)]
	}
	return e
}

// Lookup returns the next hop for addr, or ErrNoRoute.
func (t *Table) Lookup(addr uint32) (uint16, error) {
	e := t.find(addr)
	if e&flagValid == 0 {
		return 0, ErrNoRoute
	}
	return uint16(e & valueMask), nil
}

// String summarizes the table for diagnostics.
func (t *Table) String() string {
	chunks, used := 0, 0
	for _, c := range t.chunks {
		if c != nil {
			chunks++
		}
	}
	for _, g := range t.tbl8 {
		if g != nil {
			used++
		}
	}
	return fmt.Sprintf("lpm.Table{chunks=%d tbl8Used=%d}", chunks, used)
}
