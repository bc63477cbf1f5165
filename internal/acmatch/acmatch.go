// Package acmatch implements Aho-Corasick multi-pattern string matching.
//
// The CPU-only NIDS baseline in the paper scans traffic with the AC
// algorithm [34]; the FPGA pattern-matching accelerator ports the scalable
// multi-pipeline AC-DFA design of Jiang et al. [35]. Both sides of the
// reproduction share this package: the software NF calls Scan, one record
// at a time, while the hardware module calls ScanLanes on the records of a
// DMA batch and wraps the result behind the fpga interface with the
// published 32.4 Gbps / 55-cycle service model.
//
// The compiled form is one table of 256 uint32 per state — 4 B × 256 ×
// States(), the figure hwfunc.PatternMatchingMaxStates divides the
// module's BRAM by. An entry is the target state's row offset (state ×
// 256, "premultiplied"), so a step is s = next[s+b] with no shift; ASCII
// case folding is written into the rows when the table is built, so the
// walk never looks at what a byte is; and accepting states are numbered
// after all others, so the per-byte accept test is one compare and the
// match lists are read only on a hit.
//
// A DFA walk is a chain of dependent loads: each step waits out the
// previous step's load-to-use latency and the core idles in between. The
// hardware gets its rate from several pipelines walking different packets
// at once, and so does ScanLanes: Lanes records advance one byte each per
// iteration, their loads overlapping (0.8-1.3 ns/B against 2.4-2.8 for one
// record at a time; BenchmarkScan). Four, because four states, four record
// pointers, the table, its length, the threshold and the index are the
// general registers Go has on amd64, and a state that spills to the stack
// is back on the latency chain: eight lanes measured no faster than four.
// A 6 KB batch of 512 B records is 11 records, three groups either way.
package acmatch

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoPatterns reports an attempt to build an empty matcher.
var ErrNoPatterns = errors.New("acmatch: no patterns")

// maxStates keeps every premultiplied row offset inside a uint32.
const maxStates = 1 << 24

// Lanes is how many records ScanLanes walks in lockstep; the kernel
// (lockstep) is written out for exactly this many.
const Lanes = 4

// Match reports one pattern occurrence.
type Match struct {
	// PatternID indexes into the pattern list given to NewMatcher.
	PatternID int
	// End is the byte offset just past the match in the scanned input.
	End int
}

// Tally is what a scan of one record adds up to — the two numbers the
// pattern-matching module's response trailer carries.
type Tally struct {
	// Count is the number of pattern occurrences (what Scan returns).
	Count int
	// First is the PatternID of the first match Scan would emit; it is
	// meaningful only when Count > 0.
	First int
}

// Matcher is an Aho-Corasick automaton compiled to a dense DFA
// (goto+failure functions flattened, as in AC-DFA hardware pipelines).
type Matcher struct {
	patterns [][]byte
	// next holds 256 premultiplied row offsets per state; a state *is* its
	// row offset everywhere below.
	next []uint32
	// accept is the first accepting state: s accepts iff s >= accept.
	// matchLists holds the accepting states' pattern IDs, indexed from
	// accept.
	accept     uint32
	matchLists [][]int32
}

// Config parameterizes NewMatcher.
type Config struct {
	// CaseFold matches ASCII case-insensitively (Snort-style content rules
	// with the "nocase" option).
	CaseFold bool
}

// NewMatcher compiles patterns into a DFA. Pattern bytes are copied.
func NewMatcher(patterns [][]byte, cfg Config) (*Matcher, error) {
	if len(patterns) == 0 {
		return nil, ErrNoPatterns
	}
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("acmatch: pattern %d is empty", i)
		}
	}
	m := &Matcher{}
	m.patterns = make([][]byte, len(patterns))
	for i, p := range patterns {
		cp := make([]byte, len(p))
		copy(cp, p)
		if cfg.CaseFold {
			for j := range cp {
				cp[j] = fold(cp[j])
			}
		}
		m.patterns[i] = cp
	}
	if err := m.build(cfg.CaseFold); err != nil {
		return nil, err
	}
	return m, nil
}

func fold(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// build constructs the trie, computes failure links with BFS, and flattens
// into the premultiplied next-state table. With caseFold the patterns are
// already lower-case; every row's upper-case columns then repeat its
// lower-case ones.
func (m *Matcher) build(caseFold bool) error {
	type trieNode struct {
		children map[byte]int32
		fail     int32
		matches  []int32
	}
	nodes := []trieNode{{children: make(map[byte]int32)}}

	for pid, pat := range m.patterns {
		cur := int32(0)
		for _, b := range pat {
			nxt, ok := nodes[cur].children[b]
			if !ok {
				nxt = int32(len(nodes))
				nodes = append(nodes, trieNode{children: make(map[byte]int32)})
				nodes[cur].children[b] = nxt
			}
			cur = nxt
		}
		nodes[cur].matches = append(nodes[cur].matches, int32(pid))
	}
	if len(nodes) > maxStates {
		return fmt.Errorf("acmatch: %d states, the table addresses %d", len(nodes), maxStates)
	}

	// BFS for failure links, from the root: a child of the root finds only
	// itself on the root's chain and so fails to the root.
	queue := make([]int32, 1, len(nodes))
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		// Deterministic child order keeps builds reproducible.
		keys := make([]int, 0, len(nodes[u].children))
		for b := range nodes[u].children {
			keys = append(keys, int(b))
		}
		sort.Ints(keys)
		for _, bi := range keys {
			b := byte(bi)
			v := nodes[u].children[b]
			// Walk u's failure chain looking for a state with a b-child.
			f := nodes[u].fail
			target := int32(0)
			for {
				if nx, ok := nodes[f].children[b]; ok && nx != v {
					target = nx
					break
				}
				if f == 0 {
					break
				}
				f = nodes[f].fail
			}
			nodes[v].fail = target
			nodes[v].matches = append(nodes[v].matches, nodes[target].matches...)
			queue = append(queue, v)
		}
	}

	// Number the states in BFS order, the accepting ones after the rest.
	// The root accepts nothing (no pattern is empty), so it stays state 0.
	row := make([]uint32, len(nodes))
	n := uint32(0)
	for _, s := range queue {
		if len(nodes[s].matches) == 0 {
			row[s] = n << 8
			n++
		}
	}
	m.accept = n << 8
	for _, s := range queue {
		if len(nodes[s].matches) > 0 {
			row[s] = n << 8
			m.matchLists = append(m.matchLists, nodes[s].matches)
			n++
		}
	}

	// Flatten to DFA. BFS order guarantees a state's fail row is complete
	// before the state copies it.
	m.next = make([]uint32, len(nodes)<<8)
	for _, s := range queue {
		r := m.next[row[s]:][:256]
		if s != 0 {
			copy(r, m.next[row[nodes[s].fail]:][:256])
		}
		for b, c := range nodes[s].children {
			r[b] = row[c]
		}
	}
	if caseFold {
		for s := 0; s < len(m.next); s += 256 {
			copy(m.next[s+'A':s+'Z'+1], m.next[s+'a':s+'z'+1])
		}
	}
	return nil
}

// States reports the automaton's state count (drives the BRAM estimate of
// the hardware AC-DFA pipeline).
func (m *Matcher) States() int { return len(m.next) >> 8 }

// Scan runs the DFA over data and calls emit for every match, by end
// offset and then in match-list order. It returns the total number of
// matches. emit may be nil when only the count matters.
func (m *Matcher) Scan(data []byte, emit func(Match)) int {
	var t Tally
	m.walk(0, data, &t, emit)
	return t.Count
}

// ScanLanes scans every record of recs as Scan would and sets out[i] to
// the tally of recs[i]; out must be at least as long as recs. The records
// go through the lanes Lanes at a time, in order.
func (m *Matcher) ScanLanes(recs [][]byte, out []Tally) {
	out = out[:len(recs)]
	for len(recs) > 0 {
		n := min(len(recs), Lanes)
		m.group(recs[:n], out[:n])
		recs, out = recs[n:], out[n:]
	}
}

// group scans 1..Lanes records: lockstep for the length of the shortest,
// stopping to count whenever a lane accepts, then what is left of each
// record on walk from the state its lane reached. A lane without a record
// shadows lane 0 — its loads overlap the others', so it costs nothing —
// and its tally is thrown away.
//
//dhl:hotpath
func (m *Matcher) group(recs [][]byte, out []Tally) {
	var d [Lanes][]byte
	short := len(recs[0])
	for _, r := range recs[1:] {
		short = min(short, len(r))
	}
	for k := range d {
		d[k] = recs[0][:short]
		if k < len(recs) {
			d[k] = recs[k][:short]
		}
	}
	var s [Lanes]uint32
	var t [Lanes]Tally
	for i := m.lockstep(&d, &s, 0); i < short; i = m.lockstep(&d, &s, i+1) {
		for k := range s {
			if s[k] >= m.accept {
				m.hit(s[k], &t[k])
			}
		}
	}
	for k, r := range recs {
		m.walk(s[k], r[short:], &t[k], nil)
		out[k] = t[k]
	}
}

// lockstep is the lane kernel: from byte i on, the Lanes equally long
// records of d advance their states s one byte each per iteration, Lanes
// independent load chains in flight. It returns the index of the first
// byte on which some lane reached an accepting state, or the records'
// length. It is a function of its own, with no call in it, because the
// states have to stay in registers: a spilled state puts a store and a
// reload into every step of the one chain whose latency is the cost.
//
//dhl:hotpath
func (m *Matcher) lockstep(d *[Lanes][]byte, s *[Lanes]uint32, i int) int {
	next, accept := m.next, m.accept
	d0 := d[0]
	d1, d2, d3 := d[1][:len(d0)], d[2][:len(d0)], d[3][:len(d0)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for ; i < len(d0); i++ {
		s0 = next[s0+uint32(d0[i])]
		s1 = next[s1+uint32(d1[i])]
		s2 = next[s2+uint32(d2[i])]
		s3 = next[s3+uint32(d3[i])]
		if s0 >= accept || s1 >= accept || s2 >= accept || s3 >= accept {
			break
		}
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	return i
}

// walk is the one-lane loop: it advances state s over data, adding to t
// and calling emit, if not nil, for every match. Only Scan passes an emit,
// and it starts at the record's first byte, so End counts from data[0].
//
//dhl:hotpath
func (m *Matcher) walk(s uint32, data []byte, t *Tally, emit func(Match)) {
	next, accept := m.next, m.accept
	for i, b := range data {
		s = next[s+uint32(b)]
		if s >= accept {
			ml := m.hit(s, t)
			if emit != nil {
				for _, pid := range ml {
					emit(Match{PatternID: int(pid), End: i + 1})
				}
			}
		}
	}
}

// hit adds accepting state s to t and returns its match list.
//
//dhl:hotpath
func (m *Matcher) hit(s uint32, t *Tally) []int32 {
	ml := m.matchLists[(s-m.accept)>>8]
	if t.Count == 0 {
		t.First = int(ml[0])
	}
	t.Count += len(ml)
	return ml
}
