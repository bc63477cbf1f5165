package hwfunc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

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
	for name, s := range specs {
		if s.New == nil {
			t.Errorf("%s has no factory", name)
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
	if _, _, _, err := DecodePatternTrailer([]byte{1}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("short trailer: %v", err)
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
