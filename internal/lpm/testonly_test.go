package lpm

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// LookupBulk resolves a batch of addresses; misses yield 0xffff.
func (t *Table) LookupBulk(addrs []uint32, hops []uint16) {
	n := min(len(addrs), len(hops))
	for i := 0; i < n; i++ {
		h := uint16(0xffff)
		if e := t.find(addrs[i]); e&flagValid != 0 {
			h = uint16(e & valueMask)
		}
		hops[i] = h
	}
}

func (t *Table) rebuild() {
	maxTbl8 := len(t.tbl8)
	t.root = [rootEntries]uint32{}
	t.chunks = [rootEntries]*chunk{}
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
