package acmatch

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// naiveScan is the reference model: for every end offset, every pattern
// that is a suffix of the text so far. It returns what Scan must emit, in
// Scan's order — by end offset, and at one offset the way a match list is
// built: longest pattern first, equal patterns by ID.
func naiveScan(patterns [][]byte, fold bool, data []byte) []Match {
	lower := func(b []byte) []byte {
		if !fold {
			return b
		}
		out := make([]byte, len(b))
		for i, c := range b {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			out[i] = c
		}
		return out
	}
	text := lower(data)
	var out []Match
	for end := 1; end <= len(text); end++ {
		var ids []int
		for id, p := range patterns {
			if bytes.HasSuffix(text[:end], lower(p)) {
				ids = append(ids, id)
			}
		}
		sort.SliceStable(ids, func(a, b int) bool { return len(patterns[ids[a]]) > len(patterns[ids[b]]) })
		for _, id := range ids {
			out = append(out, Match{PatternID: id, End: end})
		}
	}
	return out
}

// checkVsNaive holds Scan, record by record, and ScanLanes, over all the
// records in one call, to naiveScan.
func checkVsNaive(t *testing.T, patterns [][]byte, fold bool, recs [][]byte) {
	t.Helper()
	m, err := NewMatcher(patterns, Config{CaseFold: fold})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Tally, len(recs)+1)
	guard := Tally{Count: -1, First: -1}
	out[len(recs)] = guard
	m.ScanLanes(recs, out)
	if out[len(recs)] != guard {
		t.Errorf("ScanLanes wrote past its %d records", len(recs))
	}
	for i, rec := range recs {
		want := naiveScan(patterns, fold, rec)
		var got []Match
		n := m.Scan(rec, func(mt Match) { got = append(got, mt) })
		if n != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("fold=%v patterns %q record %d %q:\n Scan  %d %v\n model %d %v", fold, patterns, i, rec, n, got, len(want), want)
		}
		if n := m.Scan(rec, nil); n != len(want) {
			t.Errorf("fold=%v patterns %q record %d %q: Scan without emit counts %d, model %d", fold, patterns, i, rec, n, len(want))
		}
		if out[i].Count != len(want) || (len(want) > 0 && out[i].First != want[0].PatternID) {
			t.Errorf("fold=%v patterns %q record %d of %d %q:\n lanes %+v\n model %d matches, first %v", fold, patterns, i, len(recs), rec, out[i], len(want), want)
		}
	}
}

func split(words ...string) [][]byte {
	out := make([][]byte, len(words))
	for i, w := range words {
		out[i] = []byte(w)
	}
	return out
}

// modelCases is the seed corpus. Each case says what it is there for and,
// in brackets, the kernel mutation it was seen to catch.
var modelCases = []struct {
	patterns [][]byte
	recs     [][]byte
}{
	// Shared prefixes and the classic failure links; every record a
	// different tally [a lane's result written to its neighbour], several
	// patterns per record [first taken from the last hit].
	{split("he", "she", "his", "hers"), split("ushers", "his", "she", "hehe")},
	// One pattern a suffix of another: match lists longer than one, so the
	// order inside a list shows in first.
	{split("d", "cd", "bcd", "abcd"), split("abcd", "xbcd", "cd", "d", "abcabcd")},
	// Duplicates and single bytes.
	{split("x", "x", "y"), split("x", "y", "xyx", "", "zzz")},
	// 0x90 runs, overlapping.
	{[][]byte{bytes.Repeat([]byte{0x90}, 4)}, [][]byte{bytes.Repeat([]byte{0x90}, 9), {0x90, 0x90, 0x90}, append([]byte("ab"), bytes.Repeat([]byte{0x90}, 5)...)}},
	// Lengths 0 and 1 beside longer ones: lockstep runs for 0 bytes and
	// every record is all tail.
	{split("a", "ab"), split("", "a", "ab", "bab")},
	// A hit on the last byte of the shortest lane ("xab"), on the first
	// byte of a tail ("xxab…": 'b' is byte 3) and a pattern that straddles
	// the end of lockstep [tail resumed from state 0].
	{split("ab", "abc"), split("xab", "xxabc", "xabcab", "abcabc")},
	// Equal lengths, five records: one full group and one lane on its own.
	{split("aa", "ba"), split("aaaa", "baba", "abab", "bbaa", "aaba")},
	// Nine records: two full groups and one left over; every leftover
	// count 1..3 occurs as the table is cut down below.
	{split("ab", "b"), split("ab", "b", "abab", "a", "bb", "", "abb", "bab", "ba")},
	// Case: only a folding matcher sees these, and only if the rows fold
	// as well as the patterns [fold applied to patterns but not rows].
	{split("CmD.ExE", "exe"), split("run CMD.EXE now", "cmd.exe", "Exe", "EXE.")},
	// The deepest states: the last non-accepting state ("abcdefg") and
	// the only accepting one sit on either side of the threshold [accept
	// threshold off by one state].
	{split("abcdefgh"), split("abcdefg", "abcdefgh", "abcdefgabcdefgh")},
}

// TestScanVsNaive runs the seed corpus, every prefix of each case's record
// list (so 1..9 records per call and every leftover count), folding on and
// off, and then seeded random cases over small alphabets.
func TestScanVsNaive(t *testing.T) {
	for _, c := range modelCases {
		for n := 1; n <= len(c.recs); n++ {
			checkVsNaive(t, c.patterns, false, c.recs[:n])
			checkVsNaive(t, c.patterns, true, c.recs[:n])
		}
	}
	rng := rand.New(rand.NewSource(18))
	word := func(alphabet string, n int) []byte {
		w := make([]byte, n)
		for i := range w {
			w[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return w
	}
	for i := 0; i < 400; i++ {
		alphabet := []string{"ab", "abAB", "ab\x90"}[i%3]
		patterns := make([][]byte, 1+rng.Intn(6))
		for p := range patterns {
			patterns[p] = word(alphabet, 1+rng.Intn(4))
		}
		recs := make([][]byte, 1+rng.Intn(9))
		equal := rng.Intn(40)
		for r := range recs {
			switch rng.Intn(4) {
			case 0:
				recs[r] = word(alphabet, rng.Intn(2))
			case 1:
				recs[r] = word(alphabet, equal)
			default:
				recs[r] = word(alphabet, rng.Intn(40))
			}
		}
		checkVsNaive(t, patterns, i%2 == 0, recs)
	}
}

// Fuzz encoding: patterns as [len-1:1][bytes] (1..8 bytes each, at most 16
// of them), records as consecutive cuts of text, one length byte each (at
// most 9; none means the text is one record).
func decodeCase(pats, lens, text []byte) (patterns, recs [][]byte) {
	for len(pats) > 1 && len(patterns) < 16 {
		n := min(1+int(pats[0])%8, len(pats)-1)
		patterns = append(patterns, pats[1:1+n])
		pats = pats[1+n:]
	}
	if len(lens) == 0 {
		return patterns, [][]byte{text}
	}
	for _, n := range lens[:min(len(lens), 9)] {
		cut := min(int(n), len(text))
		recs = append(recs, text[:cut])
		text = text[cut:]
	}
	return patterns, recs
}

func encodeCase(patterns, recs [][]byte) (pats, lens, text []byte) {
	for _, p := range patterns {
		pats = append(append(pats, byte(len(p)-1)), p...)
	}
	for _, r := range recs {
		lens = append(lens, byte(len(r)))
		text = append(text, r...)
	}
	return pats, lens, text
}

func TestCaseEncodingRoundTrips(t *testing.T) {
	for i, c := range modelCases {
		patterns, recs := decodeCase(encodeCase(c.patterns, c.recs))
		if fmt.Sprint(patterns) != fmt.Sprint(c.patterns) || fmt.Sprint(recs) != fmt.Sprint(c.recs) {
			t.Errorf("case %d decodes to %q %q", i, patterns, recs)
		}
	}
}

// FuzzLanesVsNaive holds Scan and the lane kernel to the reference model
// on arbitrary pattern sets and record cuts.
func FuzzLanesVsNaive(f *testing.F) {
	for i, c := range modelCases {
		pats, lens, text := encodeCase(c.patterns, c.recs)
		f.Add(pats, i%2 == 0, lens, text)
		f.Add(pats, i%2 == 1, lens, text)
	}
	f.Fuzz(func(t *testing.T, pats []byte, fold bool, lens, text []byte) {
		patterns, recs := decodeCase(pats, lens, text)
		if len(patterns) == 0 {
			return
		}
		checkVsNaive(t, patterns, fold, recs)
	})
}
