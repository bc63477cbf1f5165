package acmatch

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustMatcher(t *testing.T, pats []string, cfg Config) *Matcher {
	t.Helper()
	bb := make([][]byte, len(pats))
	for i, p := range pats {
		bb[i] = []byte(p)
	}
	m, err := NewMatcher(bb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := NewMatcher(nil, Config{}); err != ErrNoPatterns {
		t.Errorf("empty set: %v", err)
	}
	if _, err := NewMatcher([][]byte{{}}, Config{}); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestMustNewMatcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustNewMatcher(nil, Config{})
}

func TestClassicAhoCorasick(t *testing.T) {
	// The canonical AC example: {he, she, his, hers} over "ushers".
	m := mustMatcher(t, []string{"he", "she", "his", "hers"}, Config{})
	var got []Match
	n := m.Scan([]byte("ushers"), func(mt Match) { got = append(got, mt) })
	want := []Match{{PatternID: 1, End: 4}, {PatternID: 0, End: 4}, {PatternID: 3, End: 6}}
	if n != len(want) {
		t.Fatalf("count %d, want %d (%v)", n, len(want), got)
	}
	seen := map[Match]bool{}
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("missing match %+v in %v", w, got)
		}
	}
}

func TestOverlappingAndRepeated(t *testing.T) {
	m := mustMatcher(t, []string{"aa"}, Config{})
	if n := m.Scan([]byte("aaaa"), nil); n != 3 {
		t.Errorf("overlapping count %d, want 3", n)
	}
	m2 := mustMatcher(t, []string{"ab", "abab"}, Config{})
	if n := m2.Scan([]byte("ababab"), nil); n != 5 { // ab x3 + abab x2
		t.Errorf("count %d, want 5", n)
	}
}

func TestDuplicatePatterns(t *testing.T) {
	m := mustMatcher(t, []string{"x", "x"}, Config{})
	if n := m.Scan([]byte("x"), nil); n != 2 {
		t.Errorf("duplicate patterns matched %d times", n)
	}
}

func TestCaseFold(t *testing.T) {
	m := mustMatcher(t, []string{"CmD.ExE"}, Config{CaseFold: true})
	if n := m.Scan([]byte("run CMD.EXE now"), nil); n != 1 {
		t.Errorf("case-folded text matched %d times, want 1", n)
	}
	if n := m.Scan([]byte("cmd.exe"), nil); n != 1 {
		t.Errorf("lower-case text matched %d times, want 1", n)
	}
	ms := mustMatcher(t, []string{"CmD.ExE"}, Config{})
	if n := ms.Scan([]byte("cmd.exe"), nil); n != 0 {
		t.Errorf("case-sensitive matcher matched folded text %d times", n)
	}
}

func TestScanHitAndMiss(t *testing.T) {
	m := mustMatcher(t, []string{"needle"}, Config{})
	if n := m.Scan([]byte("haystack without it"), nil); n != 0 {
		t.Errorf("false positive: %d matches", n)
	}
	if n := m.Scan([]byte("xxneedlexx"), nil); n != 1 {
		t.Errorf("%d matches, want 1", n)
	}
}

func TestBinaryPatterns(t *testing.T) {
	nop := bytes.Repeat([]byte{0x90}, 8)
	m, err := NewMatcher([][]byte{nop}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(append([]byte("prefix"), nop...), 0x00, 0xFF)
	if n := m.Scan(payload, nil); n != 1 {
		t.Errorf("NOP sled matched %d times, want 1", n)
	}
}

func TestStatesAndPatterns(t *testing.T) {
	m := mustMatcher(t, []string{"abc", "abd"}, Config{})
	if len(m.patterns) != 2 {
		t.Errorf("patterns %d", len(m.patterns))
	}
	// root + a + ab + abc + abd = 5
	if m.States() != 5 {
		t.Errorf("states %d, want 5", m.States())
	}
}

// TestQuickVsNaive property-checks the DFA against naive substring search
// over a small alphabet (to force overlaps and failure transitions).
func TestQuickVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(r *rand.Rand, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte("ab"[r.Intn(2)])
		}
		return sb.String()
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nPat := 1 + r.Intn(5)
		pats := make([]string, nPat)
		bb := make([][]byte, nPat)
		for i := range pats {
			pats[i] = gen(r, 1+r.Intn(4))
			bb[i] = []byte(pats[i])
		}
		m, err := NewMatcher(bb, Config{})
		if err != nil {
			return false
		}
		text := gen(r, r.Intn(80))
		return m.Scan([]byte(text), nil) == len(naiveScan(bb, false, []byte(text)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchEndOffsets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pat := make([]byte, 1+r.Intn(6))
		for i := range pat {
			pat[i] = "xyz"[r.Intn(3)]
		}
		m, err := NewMatcher([][]byte{pat}, Config{})
		if err != nil {
			return false
		}
		text := make([]byte, r.Intn(100))
		for i := range text {
			text[i] = "xyz"[r.Intn(3)]
		}
		ok := true
		m.Scan(text, func(mt Match) {
			if mt.End < len(pat) || mt.End > len(text) {
				ok = false
				return
			}
			if !bytes.Equal(text[mt.End-len(pat):mt.End], pat) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
