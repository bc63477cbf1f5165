package swcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"testing"
)

// refSeal is the straightforward composition the Engine must equal byte
// for byte: a fresh stdlib CTR stream over the RFC 3686 counter block and
// a fresh HMAC-SHA1 over IV || ciphertext, truncated to TagSize.
func refSeal(key, authKey []byte, salt uint32, payload []byte, iv uint64) [TagSize]byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	var ctr [aes.BlockSize]byte
	binary.BigEndian.PutUint32(ctr[0:4], salt)
	binary.BigEndian.PutUint64(ctr[4:12], iv)
	binary.BigEndian.PutUint32(ctr[12:16], 1)
	cipher.NewCTR(block, ctr[:]).XORKeyStream(payload, payload)

	mac := hmac.New(sha1.New, authKey)
	var ivb [IVSize]byte
	binary.BigEndian.PutUint64(ivb[:], iv)
	mac.Write(ivb[:])
	mac.Write(payload)
	var tag [TagSize]byte
	copy(tag[:], mac.Sum(nil))
	return tag
}

// referenceLens straddle every boundary the kernel has: empty, the AES
// block, the short/long CTR switch, and past a full 8-block CTR stride.
var referenceLens = []int{0, 1, 15, 16, 17, ctrShortMax - 1, ctrShortMax, ctrShortMax + 1, 2048}

// checkAgainstReference seals src at every reference length (and at
// len(src)) with two Engines under different keys, interleaved so that
// scratch leaking from one packet or one Engine into the next shows,
// then opens the result and tampers with it one bit at a time.
func checkAgainstReference(t *testing.T, key, authKey []byte, salt uint32, iv uint64, src []byte) {
	t.Helper()
	otherKey, otherAuth := bytes.Clone(key), bytes.Clone(authKey)
	otherKey[0] ^= 0xff
	otherAuth[0] ^= 0xff
	engA, err := NewEngine(Config{Key: key, AuthKey: authKey, Salt: salt})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := NewEngine(Config{Key: otherKey, AuthKey: otherAuth, Salt: ^salt})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append([]int{len(src)}, referenceLens...) {
		plain := make([]byte, n)
		for i := range plain {
			plain[i] = byte(i)
			if len(src) > 0 {
				plain[i] ^= src[i%len(src)]
			}
		}
		wantA, wantB := bytes.Clone(plain), bytes.Clone(plain)
		wantTagA := refSeal(key, authKey, salt, wantA, iv)
		wantTagB := refSeal(otherKey, otherAuth, ^salt, wantB, iv+1)

		gotA, gotB := bytes.Clone(plain), bytes.Clone(plain)
		tagA := engA.Seal(gotA, iv)
		tagB := engB.Seal(gotB, iv+1)
		if !bytes.Equal(gotA, wantA) || tagA != wantTagA {
			t.Fatalf("len %d: Seal diverges from the reference", n)
		}
		if !bytes.Equal(gotB, wantB) || tagB != wantTagB {
			t.Fatalf("len %d: second Engine's Seal diverges from the reference", n)
		}

		// Every single-bit tamper of ciphertext, tag or IV is refused and
		// leaves the buffer undecrypted. Long payloads flip every 97th
		// ciphertext bit and the last: the MAC does not depend on the CTR
		// path, and 16 k Opens of 2 KB would starve the fuzzer.
		tamper := func(what string, buf []byte, iv uint64, tag [TagSize]byte) {
			before := bytes.Clone(buf)
			if err := engA.Open(buf, iv, tag); !errors.Is(err, ErrAuth) {
				t.Fatalf("len %d: tampered %s accepted: %v", n, what, err)
			}
			if !bytes.Equal(buf, before) {
				t.Fatalf("len %d: refused Open changed the buffer", n)
			}
		}
		step := 1
		if n > ctrShortMax+1 {
			step = 97
		}
		flip := func(bit int) {
			buf := bytes.Clone(gotA)
			buf[bit/8] ^= 1 << (bit % 8)
			tamper("ciphertext", buf, iv, tagA)
		}
		for bit := 0; bit < n*8; bit += step {
			flip(bit)
		}
		if n > 0 {
			flip(n*8 - 1)
		}
		for bit := 0; bit < TagSize*8; bit++ {
			bad := tagA
			bad[bit/8] ^= 1 << (bit % 8)
			tamper("tag", bytes.Clone(gotA), iv, bad)
		}
		for bit := 0; bit < 64; bit++ {
			tamper("iv", bytes.Clone(gotA), iv^(1<<bit), tagA)
		}

		if err := engB.Open(gotB, iv+1, tagB); err != nil {
			t.Fatalf("len %d: second Engine's Open: %v", n, err)
		}
		if err := engA.Open(gotA, iv, tagA); err != nil {
			t.Fatalf("len %d: Open: %v", n, err)
		}
		if !bytes.Equal(gotA, plain) || !bytes.Equal(gotB, plain) {
			t.Fatalf("len %d: Open did not restore the plaintext", n)
		}
	}
}

func FuzzSealMatchesReference(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x11}, KeySize), bytes.Repeat([]byte{0x22}, AuthKeySize), uint32(0x01020304), uint64(99), []byte("reference check payload bytes"))
	f.Add(make([]byte, KeySize), make([]byte, AuthKeySize), uint32(0), uint64(0), []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, KeySize), bytes.Repeat([]byte{0xff}, AuthKeySize), ^uint32(0), ^uint64(0), bytes.Repeat([]byte{0xa5}, ctrShortMax+3))
	f.Fuzz(func(t *testing.T, key, authKey []byte, salt uint32, iv uint64, src []byte) {
		// Fixed-size keys out of whatever the fuzzer supplies.
		k, a := make([]byte, KeySize), make([]byte, AuthKeySize)
		copy(k, key)
		copy(a, authKey)
		if len(src) > 4096 {
			src = src[:4096]
		}
		checkAgainstReference(t, k, a, salt, iv, src)
	})
}

// TestZeroAllocShortPacket pins the per-packet path for short payloads at
// no allocation at all, and records what remains above ctrShortMax: the
// stdlib CTR stream object.
func TestZeroAllocShortPacket(t *testing.T) {
	e := testEngine(t)
	for _, tc := range []struct {
		size int
		want float64
	}{{64, 0}, {ctrShortMax, 0}, {1500, 1}} {
		buf := make([]byte, tc.size)
		var tag [TagSize]byte
		if got := testing.AllocsPerRun(200, func() { tag = e.Seal(buf, 7) }); got != tc.want {
			t.Errorf("Seal %d B: %v allocs/op, want %v", tc.size, got, tc.want)
		}
		if got := testing.AllocsPerRun(200, func() {
			if err := e.Open(buf, 7, tag); err != nil {
				t.Fatal(err)
			}
			tag = e.Seal(buf, 7)
		}); got != 2*tc.want {
			t.Errorf("Open+Seal %d B: %v allocs/op, want %v", tc.size, got, 2*tc.want)
		}
	}
}
