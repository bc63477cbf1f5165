package hwfunc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/opencloudnext/dhl-go/internal/acmatch"
	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

func testKeys() (key, auth []byte) {
	key = make([]byte, swcrypto.KeySize)
	auth = make([]byte, swcrypto.AuthKeySize)
	for i := range key {
		key[i] = byte(i + 1)
	}
	for i := range auth {
		auth[i] = byte(i + 101)
	}
	return key, auth
}

func TestSpecsMatchTableVI(t *testing.T) {
	specs := Specs()
	ip := specs[IPsecCryptoName]
	if ip.LUTs != 9464 || ip.BRAM != 242 || ip.DelayCycles != 110 {
		t.Errorf("ipsec-crypto spec %+v", ip)
	}
	if ip.ThroughputBps != 65.27e9 {
		t.Errorf("ipsec-crypto throughput %v", ip.ThroughputBps)
	}
	pm := specs[PatternMatchingName]
	if pm.LUTs != 6336 || pm.BRAM != 524 || pm.DelayCycles != 55 {
		t.Errorf("pattern-matching spec %+v", pm)
	}
	if pm.ThroughputBps != 32.40e9 {
		t.Errorf("pattern-matching throughput %v", pm.ThroughputBps)
	}
	// The database is these four, every entry loadable.
	want := []string{IPsecCryptoName, PatternMatchingName, LoopbackName, IPsecDecryptName}
	for _, name := range want {
		if _, ok := specs[name]; !ok {
			t.Errorf("catalogue missing %q", name)
		}
	}
	if len(specs) != len(want) {
		t.Errorf("catalogue has %d entries, want %d", len(specs), len(want))
	}
	for name, s := range specs {
		if s.New == nil || s.LUTs <= 0 || s.ThroughputBps <= 0 || s.BitstreamBytes <= 0 {
			t.Errorf("%q has an incomplete spec: %+v", name, s)
		}
		if s.Name != name {
			t.Errorf("spec key %q != name %q", name, s.Name)
		}
	}
}

func TestIPsecCryptoNotConfigured(t *testing.T) {
	m := &IPsecCrypto{}
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, []byte{0, 0, 'x'})
	if _, err := m.ProcessBatch(nil, batch); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured: %v", err)
	}
}

func TestIPsecCryptoConfigValidation(t *testing.T) {
	key, auth := testKeys()
	if _, err := EncodeIPsecCryptoConfig(key[:10], auth, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short key: %v", err)
	}
	m := &IPsecCrypto{}
	if err := m.Configure([]byte("short")); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short blob: %v", err)
	}
	blob, err := EncodeIPsecCryptoConfig(key, auth, 0xABCD)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(blob); err != nil {
		t.Fatal(err)
	}
}

func TestIPsecCryptoEncryptsAndIsDecryptable(t *testing.T) {
	key, auth := testKeys()
	m := &IPsecCrypto{}
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 0x5A17)
	if err := m.Configure(blob); err != nil {
		t.Fatal(err)
	}

	frame := []byte("HDRHDRHDRHDR--this is the payload to protect--")
	const off = 12
	req, err := EncodeIPsecRequest(nil, frame, off)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := dhlproto.AppendRecord(nil, 7, 3, req)
	out, err := m.ProcessBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	var resp dhlproto.Record
	if werr := dhlproto.Walk(out, func(r dhlproto.Record) error { resp = r; return nil }); werr != nil {
		t.Fatal(werr)
	}
	if resp.NFID != 7 || resp.AccID != 3 {
		t.Errorf("tags not preserved: %d/%d", resp.NFID, resp.AccID)
	}
	if len(resp.Payload) != len(frame)+IPsecGrowth {
		t.Errorf("response length %d, want %d", len(resp.Payload), len(frame)+IPsecGrowth)
	}
	if !bytes.Equal(resp.Payload[:off], frame[:off]) {
		t.Error("cleartext header not preserved")
	}
	body := resp.Payload[off:]
	iv := binary.BigEndian.Uint64(body[:8])
	ct := append([]byte(nil), body[8:len(body)-swcrypto.TagSize]...)
	var tag [swcrypto.TagSize]byte
	copy(tag[:], body[len(body)-swcrypto.TagSize:])
	if bytes.Equal(ct, frame[off:]) {
		t.Error("payload not encrypted")
	}
	eng, _ := swcrypto.NewEngine(swcrypto.Config{Key: key, AuthKey: auth, Salt: 0x5A17})
	if err := eng.Open(ct, iv, tag); err != nil {
		t.Fatalf("hardware output fails software verification: %v", err)
	}
	if !bytes.Equal(ct, frame[off:]) {
		t.Error("decrypt mismatch")
	}
}

func TestIPsecCryptoUniqueIVs(t *testing.T) {
	key, auth := testKeys()
	m := &IPsecCrypto{}
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 1)
	_ = m.Configure(blob)
	var batch []byte
	for i := 0; i < 4; i++ {
		req, _ := EncodeIPsecRequest(nil, []byte("same frame"), 0)
		batch, _ = dhlproto.AppendRecord(batch, 1, 1, req)
	}
	out, err := m.ProcessBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	ivs := map[uint64]bool{}
	_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
		ivs[binary.BigEndian.Uint64(r.Payload[:8])] = true
		return nil
	})
	if len(ivs) != 4 {
		t.Errorf("IVs not unique: %d distinct of 4", len(ivs))
	}
}

func TestIPsecCryptoBadRecords(t *testing.T) {
	key, auth := testKeys()
	m := &IPsecCrypto{}
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 1)
	_ = m.Configure(blob)
	// Record shorter than the offset prefix.
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, []byte{9})
	if _, err := m.ProcessBatch(nil, batch); !errors.Is(err, ErrBadRecord) {
		t.Errorf("short record: %v", err)
	}
	// Offset beyond the frame.
	req := []byte{0xFF, 0xFF, 'a', 'b'}
	batch2, _ := dhlproto.AppendRecord(nil, 1, 1, req)
	if _, err := m.ProcessBatch(nil, batch2); !errors.Is(err, ErrBadRecord) {
		t.Errorf("bad offset: %v", err)
	}
	if _, err := EncodeIPsecRequest(nil, []byte("ab"), 5); !errors.Is(err, ErrBadRecord) {
		t.Errorf("encode bad offset: %v", err)
	}
}

func TestIPsecDecryptRoundTrip(t *testing.T) {
	key, auth := testKeys()
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 0xBEEF)

	enc := &IPsecCrypto{}
	if err := enc.Configure(blob); err != nil {
		t.Fatal(err)
	}
	dec := &IPsecDecrypt{}
	if _, err := dec.ProcessBatch(nil, nil); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured decrypt: %v", err)
	}
	if err := dec.Configure(blob); err != nil {
		t.Fatal(err)
	}

	frame := []byte("IPHDRIPHDR--plaintext payload to protect--")
	const off = 10
	req, _ := EncodeIPsecRequest(nil, frame, off)
	batch, _ := dhlproto.AppendRecord(nil, 4, 1, req)
	encOut, err := enc.ProcessBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the encrypted frame back through the decrypt module.
	var decIn []byte
	_ = dhlproto.Walk(encOut, func(r dhlproto.Record) error {
		req2, _ := EncodeIPsecRequest(nil, r.Payload, off)
		decIn, _ = dhlproto.AppendRecord(decIn, r.NFID, r.AccID, req2)
		return nil
	})
	decOut, err := dec.ProcessBatch(nil, decIn)
	if err != nil {
		t.Fatal(err)
	}
	_ = dhlproto.Walk(decOut, func(r dhlproto.Record) error {
		if !bytes.Equal(r.Payload, frame) {
			t.Errorf("decrypt round trip: %q", r.Payload)
		}
		return nil
	})
}

func TestIPsecDecryptAuthFailureSignalled(t *testing.T) {
	key, auth := testKeys()
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 0xBEEF)
	dec := &IPsecDecrypt{}
	_ = dec.Configure(blob)

	// A frame that was never sealed: garbage IV/ct/tag.
	fake := append([]byte("HDR"), make([]byte, swcrypto.IVSize+10+swcrypto.TagSize)...)
	req, _ := EncodeIPsecRequest(nil, fake, 3)
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, req)
	out, err := dec.ProcessBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
		if len(r.Payload) != 3 { // header only: payload stripped on auth failure
			t.Errorf("auth failure response %d bytes", len(r.Payload))
		}
		return nil
	})
}

func TestPatternMatchingConfigureAndMatch(t *testing.T) {
	m := &PatternMatching{}
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, []byte("x"))
	if _, err := m.ProcessBatch(nil, batch); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured: %v", err)
	}
	blob, err := EncodePatternConfig([][]byte{[]byte("attack"), []byte("evil")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(blob); err != nil {
		t.Fatal(err)
	}

	var in []byte
	in, _ = dhlproto.AppendRecord(in, 2, 9, []byte("an attack and more evil attack"))
	in, _ = dhlproto.AppendRecord(in, 3, 9, []byte("benign traffic"))
	out, err := m.ProcessBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var recs []dhlproto.Record
	_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
		cp := r
		cp.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, cp)
		return nil
	})
	if len(recs) != 2 {
		t.Fatalf("records %d", len(recs))
	}
	frame, count, first, err := DecodePatternTrailer(recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "an attack and more evil attack" {
		t.Errorf("frame %q", frame)
	}
	if count != 3 || first != 0 {
		t.Errorf("count %d first %d, want 3 matches starting with pattern 0", count, first)
	}
	_, count, first, _ = DecodePatternTrailer(recs[1].Payload)
	if count != 0 || first != 0xffff {
		t.Errorf("benign record: count %d first %#x", count, first)
	}
}

func TestPatternConfigValidation(t *testing.T) {
	if _, err := EncodePatternConfig(nil, false); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := EncodePatternConfig([][]byte{{}}, false); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty pattern: %v", err)
	}
	m := &PatternMatching{}
	if err := m.Configure([]byte{1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short blob: %v", err)
	}
	if err := m.Configure([]byte{0, 0, 2, 0, 5, 'a'}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("truncated pattern: %v", err)
	}
	good, _ := EncodePatternConfig([][]byte{[]byte("ab"), []byte("c")}, true)
	if err := m.Configure(append(bytes.Clone(good), 0, 1, 'x')); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bytes after the last pattern: %v", err)
	}
	short := bytes.Clone(good)
	short[2] = 1 // declares one pattern, carries two
	if err := m.Configure(short); !errors.Is(err, ErrBadConfig) {
		t.Errorf("truncated count: %v", err)
	}
	flag := bytes.Clone(good)
	flag[0] = 2
	if err := m.Configure(flag); !errors.Is(err, ErrBadConfig) {
		t.Errorf("case-fold flag 2: %v", err)
	}
	if err := m.Configure(good); err != nil {
		t.Errorf("well-formed blob: %v", err)
	}
	if _, _, _, err := DecodePatternTrailer([]byte{1}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("short trailer: %v", err)
	}
}

func TestPatternMatchingStateBudget(t *testing.T) {
	if PatternMatchingMaxStates < 1000 {
		t.Fatalf("implausible state budget %d", PatternMatchingMaxStates)
	}
	// A rule set that compiles to more states than the BRAM holds: many
	// long patterns with no shared prefixes.
	var patterns [][]byte
	for i := 0; i < 40; i++ {
		p := make([]byte, 80)
		for j := range p {
			p[j] = byte((i*131 + j*17 + i*j) % 251)
		}
		patterns = append(patterns, p)
	}
	m := &PatternMatching{}
	blob, err := EncodePatternConfig(patterns, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(blob); !errors.Is(err, ErrBadConfig) {
		t.Errorf("oversized AC-DFA accepted: %v", err)
	}
	// The default Snort-ish set fits comfortably.
	small, _ := EncodePatternConfig([][]byte{[]byte("cmd.exe"), []byte("/etc/passwd")}, true)
	if err := m.Configure(small); err != nil {
		t.Errorf("small set rejected: %v", err)
	}
}

func TestPatternMatchingCaseFold(t *testing.T) {
	m := &PatternMatching{}
	blob, _ := EncodePatternConfig([][]byte{[]byte("CMD.exe")}, true)
	_ = m.Configure(blob)
	in, _ := dhlproto.AppendRecord(nil, 1, 1, []byte("run cmd.EXE now"))
	out, err := m.ProcessBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
		_, count, _, _ := DecodePatternTrailer(r.Payload)
		if count != 1 {
			t.Errorf("case-folded hw match count %d", count)
		}
		return nil
	})
}

func TestLoopbackEchoes(t *testing.T) {
	var m Loopback
	if err := m.Configure([]byte("anything")); err != nil {
		t.Fatal(err)
	}
	in := []byte{1, 2, 3, 4, 5}
	out, err := m.ProcessBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("loopback mutated data")
	}
	out[0] = 99
	if in[0] == 99 {
		t.Error("loopback aliases its input")
	}
}

// TestQuickIPsecRoundTrip property-checks hardware-encrypt +
// software-decrypt identity across arbitrary frames and offsets.
func TestQuickIPsecRoundTrip(t *testing.T) {
	key, auth := testKeys()
	m := &IPsecCrypto{}
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 77)
	_ = m.Configure(blob)
	eng, _ := swcrypto.NewEngine(swcrypto.Config{Key: key, AuthKey: auth, Salt: 77})

	f := func(frame []byte, offRaw uint16) bool {
		if len(frame) > 1500 {
			frame = frame[:1500]
		}
		off := 0
		if len(frame) > 0 {
			off = int(offRaw) % (len(frame) + 1)
		}
		req, err := EncodeIPsecRequest(nil, frame, off)
		if err != nil {
			return false
		}
		batch, _ := dhlproto.AppendRecord(nil, 1, 1, req)
		out, err := m.ProcessBatch(nil, batch)
		if err != nil {
			return false
		}
		ok := false
		_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
			body := r.Payload[off:]
			iv := binary.BigEndian.Uint64(body[:8])
			ct := append([]byte(nil), body[8:len(body)-swcrypto.TagSize]...)
			var tag [swcrypto.TagSize]byte
			copy(tag[:], body[len(body)-swcrypto.TagSize:])
			if eng.Open(ct, iv, tag) != nil {
				return nil
			}
			ok = bytes.Equal(ct, frame[off:]) && bytes.Equal(r.Payload[:off], frame[:off])
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIPsecCryptoZeroAllocBatch pins the module's per-batch work at no
// allocation: a 6 KB batch of 64 B frames, as the ipsec64 workload sends
// it, into a response buffer the caller already owns.
func TestIPsecCryptoZeroAllocBatch(t *testing.T) {
	key, auth := testKeys()
	m := &IPsecCrypto{}
	blob, _ := EncodeIPsecCryptoConfig(key, auth, 0x5A17)
	if err := m.Configure(blob); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64)
	req, err := EncodeIPsecRequest(nil, frame, 34)
	if err != nil {
		t.Fatal(err)
	}
	var batch []byte
	records := 0
	for len(batch)+dhlproto.RecordOverhead+len(req) <= 6*1024 {
		if batch, err = dhlproto.AppendRecord(batch, 1, 1, req); err != nil {
			t.Fatal(err)
		}
		records++
	}
	dst := make([]byte, 0, len(batch)+records*IPsecGrowth)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := m.ProcessBatch(dst, batch); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ProcessBatch over %d records of 64 B: %v allocs/op, want 0", records, got)
	}
}

// FuzzPatternConfig feeds Configure arbitrary blobs: it must not panic, and
// whatever it accepts is exactly what EncodePatternConfig writes for the
// rule set it decoded.
func FuzzPatternConfig(f *testing.F) {
	for _, seed := range []struct {
		patterns [][]byte
		fold     bool
	}{
		{[][]byte{[]byte("attack"), []byte("evil")}, false},
		{[][]byte{[]byte("CmD.ExE")}, true},
		{[][]byte{{0x90, 0x90, 0x90, 0x90}, {0}, []byte("a")}, false},
	} {
		blob, err := EncodePatternConfig(seed.patterns, seed.fold)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
		f.Add(append(bytes.Clone(blob), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 0, 1, 0, 1, 'a'})
	f.Add([]byte{0, 0xff, 0xff, 0, 1, 'a'})
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		m := &PatternMatching{}
		if err := m.Configure(blob); err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Configure(%x): %v, want ErrBadConfig", blob, err)
			}
			return
		}
		patterns, fold, err := decodePatternConfig(blob)
		if err != nil {
			t.Fatalf("Configure accepted %x, the decoder says %v", blob, err)
		}
		again, err := EncodePatternConfig(patterns, fold)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("accepted %x\nre-encodes to %x (%v)", blob, again, err)
		}
	})
}

// patternReference is the module's response to one request record, built
// the slow way: one Scan with a callback, one record at a time.
func patternReference(t *testing.T, dst []byte, matcher *acmatch.Matcher, rec dhlproto.Record) []byte {
	t.Helper()
	count, first := 0, uint16(0xffff)
	matcher.Scan(rec.Payload, func(mt acmatch.Match) {
		if count == 0 {
			first = uint16(mt.PatternID)
		}
		count++
	})
	resp := append([]byte(nil), rec.Payload...)
	resp = binary.BigEndian.AppendUint16(resp, uint16(min(count, 0xffff)))
	resp = binary.BigEndian.AppendUint16(resp, first)
	dst, err := dhlproto.AppendRecord(dst, rec.NFID, rec.AccID, resp)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestPatternMatchingBatchMatchesPerRecord runs batches of 1..13 records
// of mixed sizes — every count of records left over after the last full
// group of lanes, and groups whose records end at different bytes — and
// wants the response batch byte for byte what a per-record scan builds.
func TestPatternMatchingBatchMatchesPerRecord(t *testing.T) {
	patterns := [][]byte{[]byte("attack"), []byte("tack"), []byte("evil"), []byte("k"), {0x90, 0x90}}
	for _, fold := range []bool{false, true} {
		blob, err := EncodePatternConfig(patterns, fold)
		if err != nil {
			t.Fatal(err)
		}
		m := &PatternMatching{}
		if err := m.Configure(blob); err != nil {
			t.Fatal(err)
		}
		matcher, err := acmatch.NewMatcher(patterns, acmatch.Config{CaseFold: fold})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(18))
		words := [][]byte{[]byte("attack"), []byte("ATTACK"), []byte("evil"), []byte("Evil tack"), {0x90, 0x90, 0x90}, []byte("k")}
		for records := 1; records <= 13; records++ {
			for round := 0; round < 8; round++ {
				var in, want []byte
				for r := 0; r < records; r++ {
					size := []int{0, 1, 7, 64, 64, 200, 512}[rng.Intn(7)]
					payload := make([]byte, size)
					for i := range payload {
						payload[i] = "abck "[rng.Intn(5)]
					}
					for n := rng.Intn(4); n > 0 && size > 0; n-- {
						w := words[rng.Intn(len(words))]
						copy(payload[rng.Intn(size):], w)
					}
					if size > 0 && rng.Intn(3) == 0 {
						w := words[rng.Intn(len(words))]
						copy(payload[max(size-len(w), 0):], w[max(len(w)-size, 0):])
					}
					rec := dhlproto.Record{NFID: uint16(1 + r), AccID: uint16(3 + r%2), Payload: payload}
					if in, err = dhlproto.AppendRecord(in, rec.NFID, rec.AccID, rec.Payload); err != nil {
						t.Fatal(err)
					}
					want = patternReference(t, want, matcher, rec)
				}
				got, err := m.ProcessBatch(nil, in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("fold=%v, %d records, round %d: response batch differs from the per-record reference\n got  %x\n want %x", fold, records, round, got, want)
				}
			}
		}
	}
}

// TestPatternMatchingZeroAllocBatch pins the module's per-batch work at no
// allocation: a 6 KB batch of 512 B frames, as the mixed512 workload sends
// it (11 records: two groups of lanes and a short one), one frame carrying
// a pattern, into a response buffer the caller already owns.
func TestPatternMatchingZeroAllocBatch(t *testing.T) {
	m := &PatternMatching{}
	blob, _ := EncodePatternConfig([][]byte{[]byte("/etc/passwd"), []byte("cmd.exe"), []byte("wget http")}, true)
	if err := m.Configure(blob); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 512)
	for i := range frame {
		frame[i] = byte('a' + i%26)
	}
	var batch []byte
	var err error
	records := 0
	for len(batch)+dhlproto.RecordOverhead+len(frame) <= 6*1024 {
		if batch, err = dhlproto.AppendRecord(batch, 1, 1, frame); err != nil {
			t.Fatal(err)
		}
		records++
	}
	copy(batch[len(batch)-100:], "WGET HTTP")
	dst := make([]byte, 0, len(batch)+records*PatternMatchTrailer)
	var out []byte
	if got := testing.AllocsPerRun(100, func() {
		if out, err = m.ProcessBatch(dst, batch); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ProcessBatch over %d records of 512 B: %v allocs/op, want 0", records, got)
	}
	if _, count, first, _ := DecodePatternTrailer(out[len(out)-len(frame)-PatternMatchTrailer:]); count != 1 || first != 2 {
		t.Errorf("last record: count %d first %d, want the planted pattern 2 once", count, first)
	}
}
