package swcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	key := make([]byte, KeySize)
	auth := make([]byte, AuthKeySize)
	for i := range key {
		key[i] = byte(i)
	}
	for i := range auth {
		auth[i] = byte(0x80 + i)
	}
	e, err := NewEngine(Config{Key: key, AuthKey: auth, Salt: 0x01020304})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{Key: make([]byte, 16), AuthKey: make([]byte, AuthKeySize)}); !errors.Is(err, ErrBadKey) {
		t.Errorf("short key: %v", err)
	}
	if _, err := NewEngine(Config{Key: make([]byte, KeySize), AuthKey: make([]byte, 8)}); !errors.Is(err, ErrBadAuthKey) {
		t.Errorf("short auth key: %v", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	e := testEngine(t)
	plain := []byte("the quick brown fox jumps over the lazy dog")
	buf := append([]byte(nil), plain...)
	tag := e.Seal(buf, 42)
	if bytes.Equal(buf, plain) {
		t.Fatal("Seal left plaintext unchanged")
	}
	if err := e.Open(buf, 42, tag); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, plain) {
		t.Fatalf("round trip mismatch: %q", buf)
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	e := testEngine(t)
	buf := []byte("some payload data here")
	tag := e.Seal(buf, 7)

	flipped := append([]byte(nil), buf...)
	flipped[3] ^= 1
	if err := e.Open(flipped, 7, tag); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered ciphertext: %v", err)
	}
	badTag := tag
	badTag[0] ^= 1
	cp := append([]byte(nil), buf...)
	if err := e.Open(cp, 7, badTag); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered tag: %v", err)
	}
	if err := e.Open(append([]byte(nil), buf...), 8, tag); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong IV: %v", err)
	}
}

func TestDistinctIVsDistinctCiphertexts(t *testing.T) {
	e := testEngine(t)
	a := []byte("identical plaintext!")
	b := append([]byte(nil), a...)
	e.Seal(a, 1)
	e.Seal(b, 2)
	if bytes.Equal(a, b) {
		t.Error("same keystream for different IVs")
	}
}

func TestCTRMatchesReference(t *testing.T) {
	// Cross-check the RFC 3686-style counter construction against a
	// direct stdlib CTR computation.
	e := testEngine(t)
	plain := []byte("reference check payload bytes")
	got := append([]byte(nil), plain...)
	e.Seal(got, 99)

	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	block, _ := aes.NewCipher(key)
	var ctr [aes.BlockSize]byte
	binary.BigEndian.PutUint32(ctr[0:4], 0x01020304)
	binary.BigEndian.PutUint64(ctr[4:12], 99)
	binary.BigEndian.PutUint32(ctr[12:16], 1)
	want := append([]byte(nil), plain...)
	cipher.NewCTR(block, ctr[:]).XORKeyStream(want, want)
	if !bytes.Equal(got, want) {
		t.Error("CTR construction diverges from reference")
	}
}

func TestEmptyPayload(t *testing.T) {
	e := testEngine(t)
	var empty []byte
	tag := e.Seal(empty, 1)
	if err := e.Open(empty, 1, tag); err != nil {
		t.Errorf("empty payload: %v", err)
	}
}

// TestQuickRoundTrip property-checks seal/open identity over arbitrary
// payloads and IVs.
func TestQuickRoundTrip(t *testing.T) {
	e := testEngine(t)
	f := func(payload []byte, iv uint64) bool {
		if len(payload) > 2048 {
			payload = payload[:2048]
		}
		buf := append([]byte(nil), payload...)
		tag := e.Seal(buf, iv)
		if err := e.Open(buf, iv, tag); err != nil {
			return false
		}
		return bytes.Equal(buf, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
