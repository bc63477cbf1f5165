package hwfunc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/swcrypto"
)

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

func TestMD5Auth(t *testing.T) {
	m := &MD5Auth{}
	if _, err := m.ProcessBatch(nil, nil); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured: %v", err)
	}
	if err := m.Configure(nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty key: %v", err)
	}
	if err := m.Configure(make([]byte, 100)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("oversized key: %v", err)
	}
	key := []byte("auth-key-123")
	if err := m.Configure(key); err != nil {
		t.Fatal(err)
	}
	payload := []byte("authenticate this payload")
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, payload)
	out, err := m.ProcessBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
		got, verr := VerifyMD5Trailer(r.Payload, key)
		if verr != nil {
			t.Fatal(verr)
		}
		if !bytes.Equal(got, payload) {
			t.Error("payload altered")
		}
		// Tampering must be caught.
		bad := append([]byte(nil), r.Payload...)
		bad[0] ^= 1
		if _, verr := VerifyMD5Trailer(bad, key); verr == nil {
			t.Error("tampered digest accepted")
		}
		if _, verr := VerifyMD5Trailer(r.Payload, []byte("wrong")); verr == nil {
			t.Error("wrong key accepted")
		}
		return nil
	})
}

func TestRegexClassifier(t *testing.T) {
	m := &RegexClassifier{}
	if _, err := m.ProcessBatch(nil, nil); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured: %v", err)
	}
	blob, err := EncodeRegexConfig([]string{
		`(GET|POST) /admin`,
		`\d\d\d-\d\d-\d\d\d\d`, // SSN-ish
		`select.+from`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(blob); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		payload string
		bitmap  uint16
		first   uint16
	}{
		{"GET /admin HTTP/1.1", 0b001, 0},
		{"my ssn is 123-45-6789 ok", 0b010, 1},
		{"select name from users", 0b100, 2},
		{"GET /admin?q=select * from t", 0b101, 0},
		{"nothing interesting", 0, 0xffff},
	}
	for _, c := range cases {
		batch, _ := dhlproto.AppendRecord(nil, 1, 1, []byte(c.payload))
		out, perr := m.ProcessBatch(nil, batch)
		if perr != nil {
			t.Fatal(perr)
		}
		_ = dhlproto.Walk(out, func(r dhlproto.Record) error {
			payload, bitmap, first, derr := DecodeRegexTrailer(r.Payload)
			if derr != nil {
				t.Fatal(derr)
			}
			if string(payload) != c.payload {
				t.Errorf("payload %q", payload)
			}
			if bitmap != c.bitmap || first != c.first {
				t.Errorf("%q: bitmap %03b first %#x, want %03b %#x", c.payload, bitmap, first, c.bitmap, c.first)
			}
			return nil
		})
	}
}

func TestRegexClassifierConfigErrors(t *testing.T) {
	if _, err := EncodeRegexConfig(nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty: %v", err)
	}
	if _, err := EncodeRegexConfig(make([]string, 17)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("17 rules: %v", err)
	}
	m := &RegexClassifier{}
	blob, _ := EncodeRegexConfig([]string{"("})
	if err := m.Configure(blob); !errors.Is(err, ErrBadConfig) {
		t.Errorf("syntax error: %v", err)
	}
	// Rule set exceeding the DFA state memory.
	explosive := "(a|b)*a" + strings.Repeat("(a|b)", 16)
	blob, _ = EncodeRegexConfig([]string{explosive})
	if err := m.Configure(blob); !errors.Is(err, ErrBadConfig) {
		t.Errorf("state explosion: %v", err)
	}
	// The blob comes from an NF: exactly what the encoder produces, or
	// nothing.
	good, _ := EncodeRegexConfig([]string{"ab+", "c"})
	if err := m.Configure(good); err != nil {
		t.Fatalf("well-formed blob: %v", err)
	}
	if err := m.Configure(append(bytes.Clone(good), 0xde, 0xad)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bytes after the last rule: %v", err)
	}
	short := bytes.Clone(good)
	short[1] = 1 // declares one rule, carries two
	if err := m.Configure(short); !errors.Is(err, ErrBadConfig) {
		t.Errorf("truncated count: %v", err)
	}
	if err := m.Configure(good[:len(good)-1]); !errors.Is(err, ErrBadConfig) {
		t.Errorf("truncated rule: %v", err)
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

func TestDataCompressionBothDirections(t *testing.T) {
	comp := &DataCompression{}
	if _, err := comp.ProcessBatch(nil, nil); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured: %v", err)
	}
	if err := comp.Configure([]byte{0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short config: %v", err)
	}
	if err := comp.Configure([]byte{2, 5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad direction: %v", err)
	}
	if err := comp.Configure([]byte{0, 12}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad level: %v", err)
	}
	if err := comp.Configure([]byte{0, 9}); err != nil {
		t.Fatal(err)
	}
	decomp := &DataCompression{}
	if err := decomp.Configure([]byte{1, 0}); err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("flow compression "), 30)
	batch, _ := dhlproto.AppendRecord(nil, 1, 1, payload)
	compressed, err := comp.ProcessBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	var compressedLen int
	var back []byte
	_ = dhlproto.Walk(compressed, func(r dhlproto.Record) error {
		compressedLen = len(r.Payload)
		back, _ = dhlproto.AppendRecord(nil, r.NFID, r.AccID, r.Payload)
		return nil
	})
	if compressedLen >= len(payload) {
		t.Errorf("compression grew payload: %d -> %d", len(payload), compressedLen)
	}
	restored, err := decomp.ProcessBatch(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	_ = dhlproto.Walk(restored, func(r dhlproto.Record) error {
		if !bytes.Equal(r.Payload, payload) {
			t.Error("round trip mismatch")
		}
		return nil
	})
	// Garbage input to the decompressor is a bad record, not a crash.
	junk, _ := dhlproto.AppendRecord(nil, 1, 1, []byte{0xde, 0xad, 0xbe, 0xef})
	if _, err := decomp.ProcessBatch(nil, junk); !errors.Is(err, ErrBadRecord) {
		t.Errorf("garbage inflate: %v", err)
	}
}
