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
// block, the short/long CTR switch, past a full 8-block CTR stride, the
// SHA-1 padding edges (8 + len at 55, 56, 63 and 64 mod 64, where the
// tail needs a second padding block or none), and 9000 B, which grows the
// Engine's keystream scratch.
var referenceLens = []int{0, 1, 15, 16, 17, 47, 48, 55, 56, 111, 112, 119, 120,
	ctrShortMax - 1, ctrShortMax, ctrShortMax + 1, 2048, 9000}

// kernels lists the HMAC kernels this CPU and build can run: blockSHANI
// where it exists, and always the crypto/hmac fallback.
func kernels() []bool {
	if useSHANI {
		return []bool{true, false}
	}
	return []bool{false}
}

// kernelName names a kernels() entry for test output.
func kernelName(shani bool) string {
	if shani {
		return "sha-ni"
	}
	return "crypto/hmac"
}

// newEngineOn builds an Engine on the blockSHANI kernel or on the
// crypto/hmac fallback, whichever the CPU would pick.
func newEngineOn(t testing.TB, shani bool, cfg Config) *Engine {
	t.Helper()
	defer func(was bool) { useSHANI = was }(useSHANI)
	useSHANI = shani
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAgainstReference runs checkKernel on every kernel in kernels().
func checkAgainstReference(t *testing.T, key, authKey []byte, salt uint32, iv uint64, src []byte) {
	t.Helper()
	for _, shani := range kernels() {
		checkKernel(t, shani, key, authKey, salt, iv, src)
	}
}

// checkKernel seals src at every reference length (and at len(src)) with
// two Engines on one kernel under different keys, interleaved so that
// scratch leaking from one packet or one Engine into the next shows, then
// opens the result and tampers with it one bit at a time.
func checkKernel(t *testing.T, shani bool, key, authKey []byte, salt uint32, iv uint64, src []byte) {
	t.Helper()
	otherKey, otherAuth := bytes.Clone(key), bytes.Clone(authKey)
	otherKey[0] ^= 0xff
	otherAuth[0] ^= 0xff
	engA := newEngineOn(t, shani, Config{Key: key, AuthKey: authKey, Salt: salt})
	engB := newEngineOn(t, shani, Config{Key: otherKey, AuthKey: otherAuth, Salt: ^salt})
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
			t.Fatalf("%s, len %d: Seal diverges from the reference", kernelName(shani), n)
		}
		if !bytes.Equal(gotB, wantB) || tagB != wantTagB {
			t.Fatalf("%s, len %d: second Engine's Seal diverges from the reference", kernelName(shani), n)
		}

		// Every single-bit tamper of ciphertext, tag or IV is refused and
		// leaves the buffer undecrypted. Long payloads flip every 97th
		// ciphertext bit and the last: the MAC does not depend on the CTR
		// path, and 16 k Opens of 2 KB would starve the fuzzer. One buffer
		// takes every flip, undone after each Open, so that it equals the
		// ciphertext again unless the refused Open wrote to it.
		buf := bytes.Clone(gotA)
		tamper := func(what string, bit int, iv uint64, tag [TagSize]byte) {
			if bit >= 0 {
				buf[bit/8] ^= 1 << (bit % 8)
			}
			if err := engA.Open(buf, iv, tag); !errors.Is(err, ErrAuth) {
				t.Fatalf("%s, len %d: tampered %s accepted: %v", kernelName(shani), n, what, err)
			}
			if bit >= 0 {
				buf[bit/8] ^= 1 << (bit % 8)
			}
			if !bytes.Equal(buf, gotA) {
				t.Fatalf("%s, len %d: refused Open changed the buffer", kernelName(shani), n)
			}
		}
		step := 1
		if n > ctrShortMax+1 {
			step = 97
		}
		for bit := 0; bit < n*8; bit += step {
			tamper("ciphertext", bit, iv, tagA)
		}
		if n > 0 {
			tamper("ciphertext", n*8-1, iv, tagA)
		}
		for bit := 0; bit < TagSize*8; bit++ {
			bad := tagA
			bad[bit/8] ^= 1 << (bit % 8)
			tamper("tag", -1, iv, bad)
		}
		for bit := 0; bit < 64; bit++ {
			tamper("iv", -1, iv^(1<<bit), tagA)
		}

		if err := engB.Open(gotB, iv+1, tagB); err != nil {
			t.Fatalf("%s, len %d: second Engine's Open: %v", kernelName(shani), n, err)
		}
		if err := engA.Open(gotA, iv, tagA); err != nil {
			t.Fatalf("%s, len %d: Open: %v", kernelName(shani), n, err)
		}
		if !bytes.Equal(gotA, plain) || !bytes.Equal(gotB, plain) {
			t.Fatalf("%s, len %d: Open did not restore the plaintext", kernelName(shani), n)
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

// TestSHANIBlockMatchesReference holds blockSHANI, framed by
// Engine.digest from SHA-1's initial state, to crypto/sha1 at every
// length from 0 to 1024 B: every tail length, both padding shapes, and
// messages of up to 16 whole blocks compressed in place.
func TestSHANIBlockMatchesReference(t *testing.T) {
	if !useSHANI {
		t.Skip("no SHA-NI kernel on this CPU or in this build")
	}
	var e Engine
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	for n := 0; n <= len(msg); n++ {
		h := sha1Init
		e.digest(&h, 0, msg[:n], n)
		var got [sha1.Size]byte
		for i, v := range h {
			binary.BigEndian.PutUint32(got[4*i:], v)
		}
		if want := sha1.Sum(msg[:n]); got != want {
			t.Fatalf("len %d: %x, want %x", n, got, want)
		}
	}
}

// TestZeroAllocShortPacket pins the per-packet path at no allocation at
// all, on both sides of ctrShortMax and for a jumbo payload, on every
// kernel. The 9000 B keystream scratch grows in AllocsPerRun's warm-up.
func TestZeroAllocShortPacket(t *testing.T) {
	key, auth := make([]byte, KeySize), make([]byte, AuthKeySize)
	for _, shani := range kernels() {
		e := newEngineOn(t, shani, Config{Key: key, AuthKey: auth, Salt: 0x01020304})
		for _, size := range []int{64, ctrShortMax, ctrShortMax + 1, 1500, 9000} {
			buf := make([]byte, size)
			var tag [TagSize]byte
			if got := testing.AllocsPerRun(200, func() { tag = e.Seal(buf, 7) }); got != 0 {
				t.Errorf("%s, Seal %d B: %v allocs/op, want 0", kernelName(shani), size, got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if err := e.Open(buf, 7, tag); err != nil {
					t.Fatal(err)
				}
				tag = e.Seal(buf, 7)
			}); got != 0 {
				t.Errorf("%s, Open+Seal %d B: %v allocs/op, want 0", kernelName(shani), size, got)
			}
		}
	}
}
