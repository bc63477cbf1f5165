// Package swcrypto is the software cryptographic engine behind the
// CPU-only IPsec gateway baseline — the stand-in for the Intel-ipsec-mb
// multi-buffer library used in the paper's evaluation (§V-B1).
//
// It provides the exact cipher suite the paper evaluates: AES-256 in CTR
// mode for confidentiality plus HMAC-SHA1 for authentication, and like
// Intel-ipsec-mb it runs them on the CPU's own crypto instructions: AES-NI
// through crypto/aes, and the SHA extensions through blockSHANI where the
// CPU has them. The hardware ipsec-crypto accelerator module reuses this
// same engine functionally (so ciphertext is identical on either path)
// while adding the FPGA service model on top.
package swcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

const (
	// KeySize is the AES-256 key size.
	KeySize = 32
	// AuthKeySize is the HMAC-SHA1 key size used by the reproduction.
	AuthKeySize = 20
	// TagSize is the truncated HMAC-SHA1 ICV length (RFC 2404: 96 bits).
	TagSize = 12
	// IVSize is the per-packet CTR IV (nonce) size carried in the packet.
	IVSize = 8
)

// Errors returned by the engine.
var (
	ErrBadKey     = errors.New("swcrypto: cipher key must be 32 bytes")
	ErrBadAuthKey = errors.New("swcrypto: auth key must be 20 bytes")
	ErrAuth       = errors.New("swcrypto: authentication failed")
)

// Engine encrypts and authenticates packet payloads. It is the software
// realization of the paper's "aes_256_ctr" + "hmac_sha1" hardware function
// pair (combined as the ipsec-crypto accelerator module).
//
// NewEngine derives everything that depends only on the keys (the AES key
// schedule, the salted counter block, the SHA-1 states after the HMAC
// ipad and opad blocks), so Seal and Open neither re-derive nor allocate
// it. The Engine therefore carries per-call scratch: use one Engine per
// worker, as Intel-ipsec-mb's MB_MGR is one per thread. It is not safe
// for concurrent use.
type Engine struct {
	block cipher.Block
	// gcm is used for its counter mode alone: Seal under nonce salt || IV
	// XORs plaintext with the keystream from counter block salt || IV || 2
	// on, which is RFC 3686's from its second block. Its tag is dropped.
	gcm cipher.AEAD

	// inner and outer are the SHA-1 states after the HMAC ipad and opad
	// blocks, for the blockSHANI kernel.
	inner, outer [5]uint32
	// mac is the crypto/hmac kernel, used where blockSHANI is not: it
	// saves the marshaled states after the ipad and opad blocks on its
	// first Reset and restores them on every later Reset and Sum.
	mac hash.Hash

	// ctr is the RFC 3686 counter block: the salt is written once, the
	// IV and block counter per packet. Its first 12 bytes are gcm's nonce.
	ctr [aes.BlockSize]byte
	ks  [aes.BlockSize]byte
	// stream receives gcm's output; it grows to the longest payload seen.
	stream []byte
	// pad holds the tail of the inner HMAC message and its SHA-1 padding,
	// one or two blocks; outerMsg is the outer message, the inner digest
	// followed by padding written once.
	pad      [2 * sha1.BlockSize]byte
	outerMsg [sha1.BlockSize]byte
	// sum holds the IV on the way into mac and the digest on the way out.
	sum [sha1.Size]byte
}

// Config parameterizes NewEngine.
type Config struct {
	// Key is the AES-256 key (32 bytes).
	Key []byte
	// AuthKey is the HMAC-SHA1 key (20 bytes).
	AuthKey []byte
	// Salt is mixed into the CTR nonce, as in RFC 3686 IPsec CTR mode.
	Salt uint32
}

// NewEngine builds an Engine from cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Key) != KeySize {
		return nil, fmt.Errorf("%w (got %d)", ErrBadKey, len(cfg.Key))
	}
	if len(cfg.AuthKey) != AuthKeySize {
		return nil, fmt.Errorf("%w (got %d)", ErrBadAuthKey, len(cfg.AuthKey))
	}
	block, err := aes.NewCipher(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("swcrypto: new cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		// Refused where the stdlib allows no GCM with caller-chosen nonces
		// (GODEBUG=fips140=only, which refuses HMAC-SHA1 as well).
		return nil, fmt.Errorf("swcrypto: new gcm for the CTR keystream: %w", err)
	}
	e := &Engine{block: block, gcm: gcm}
	binary.BigEndian.PutUint32(e.ctr[0:4], cfg.Salt)
	if !useSHANI {
		e.mac = hmac.New(sha1.New, cfg.AuthKey)
		e.mac.Reset() // saves the pad states now, not on the first packet
		return e, nil
	}
	// RFC 2104 with a key shorter than the block: key ^ ipad and
	// key ^ opad, zero-extended, are the first block of each hash.
	var ipad, opad [sha1.BlockSize]byte
	for i := range ipad {
		ipad[i], opad[i] = 0x36, 0x5c
	}
	subtle.XORBytes(ipad[:], ipad[:], cfg.AuthKey)
	subtle.XORBytes(opad[:], opad[:], cfg.AuthKey)
	e.inner, e.outer = sha1Init, sha1Init
	blockSHANI(&e.inner, ipad[:])
	blockSHANI(&e.outer, opad[:])
	e.outerMsg[sha1.Size] = 0x80
	binary.BigEndian.PutUint64(e.outerMsg[sha1.BlockSize-8:], (sha1.BlockSize+sha1.Size)*8)
	return e, nil
}

// sha1Init is SHA-1's initial state (FIPS 180-4 §5.3.1).
var sha1Init = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// ctrShortMax is the longest payload the in-place single-block CTR
// handles; longer ones take their first block from block.Encrypt and the
// rest from gcm's keystream, which costs about 140 ns before its first
// byte (GHASH set-up and the tag) and runs 8 blocks at a time from 128 B
// of input on. Measured on a 2.0 GHz Xeon with SHA-NI, go1.24, one CPU,
// medians of 10 runs, keystream only: single-block costs 148 ns at 64 B,
// 221 at 96, 240-285 at 104-120, 297 at 128, 330 at 144 and 362 at 160;
// the block + gcm path 202, 236, 249-277, 280, 184 and 207. The gcm path
// loses every run to 96 B, splits the runs at 104-120 B and wins every
// run from 128 B. Both the crossover and the gain assume the stdlib's
// AES-NI + PCLMULQDQ GCM: on its generic code (-tags purego) the GHASH the
// gcm path computes and drops makes Seal slower from 256 B on
// (EXPERIMENTS.md E1); other platforms were not measured.
const ctrShortMax = 120

// xorKeyStream applies the AES-256-CTR keystream for iv to p in place.
// The counter block is RFC 3686's: salt, IV, 32-bit block counter from 1.
//
//dhl:hotpath
func (e *Engine) xorKeyStream(p []byte, iv uint64) {
	binary.BigEndian.PutUint64(e.ctr[4:12], iv)
	if len(p) <= ctrShortMax {
		e.xorKeyStreamShort(p)
		return
	}
	e.xorKeyStreamShort(p[:aes.BlockSize])
	rest := p[aes.BlockSize:]
	e.stream = e.gcm.Seal(e.stream[:0], e.ctr[:12], rest, nil)
	copy(rest, e.stream)
}

// xorKeyStreamShort is the single-block path: one block.Encrypt per 16
// bytes into Engine scratch, XORed into p. The caller has put the IV in
// the counter block.
//
//dhl:hotpath
func (e *Engine) xorKeyStreamShort(p []byte) {
	for n := uint32(1); len(p) > 0; n++ {
		binary.BigEndian.PutUint32(e.ctr[12:16], n)
		e.block.Encrypt(e.ks[:], e.ctr[:])
		p = p[subtle.XORBytes(p, p, e.ks[:]):]
	}
}

// Seal encrypts payload in place using the per-packet IV and returns the
// TagSize-byte authentication tag over the ciphertext (encrypt-then-MAC,
// as IPsec ESP does).
func (e *Engine) Seal(payload []byte, iv uint64) [TagSize]byte {
	e.xorKeyStream(payload, iv)
	return e.tag(payload, iv)
}

// Open verifies the tag over the ciphertext and decrypts in place.
func (e *Engine) Open(payload []byte, iv uint64, tag [TagSize]byte) error {
	want := e.tag(payload, iv)
	if !hmac.Equal(want[:], tag[:]) {
		return ErrAuth
	}
	e.xorKeyStream(payload, iv)
	return nil
}

// tag is HMAC-SHA1 over IV || ciphertext, truncated to TagSize.
//
//dhl:hotpath
func (e *Engine) tag(ciphertext []byte, iv uint64) [TagSize]byte {
	var out [TagSize]byte
	if e.mac != nil {
		e.mac.Reset()
		binary.BigEndian.PutUint64(e.sum[:IVSize], iv)
		e.mac.Write(e.sum[:IVSize])
		e.mac.Write(ciphertext)
		copy(out[:], e.mac.Sum(e.sum[:0]))
		return out
	}
	h := e.inner
	binary.BigEndian.PutUint64(e.pad[:IVSize], iv)
	e.digest(&h, IVSize, ciphertext, sha1.BlockSize+IVSize+len(ciphertext))
	for i, v := range h {
		binary.BigEndian.PutUint32(e.outerMsg[4*i:], v)
	}
	h = e.outer
	blockSHANI(&h, e.outerMsg[:])
	for i := range TagSize / 4 {
		binary.BigEndian.PutUint32(out[4*i:], h[i])
	}
	return out
}

// digest finishes a SHA-1 hash in h over head || msg, where head is the
// first n bytes of e.pad, and pads it as a message of total bytes. Whole
// blocks of msg are compressed where they lie; only the first block and
// the tail are copied into e.pad.
//
//dhl:hotpath
func (e *Engine) digest(h *[5]uint32, n int, msg []byte, total int) {
	k := copy(e.pad[n:sha1.BlockSize], msg)
	n += k
	if n == sha1.BlockSize {
		blockSHANI(h, e.pad[:sha1.BlockSize])
		msg = msg[k:]
		whole := len(msg) &^ (sha1.BlockSize - 1)
		if whole > 0 {
			blockSHANI(h, msg[:whole])
		}
		n = copy(e.pad[:], msg[whole:])
	}
	// 0x80, zeros, and the bit length in the last 8 bytes of the block;
	// a tail longer than 55 bytes leaves no room and takes a second block.
	end := sha1.BlockSize
	if n > sha1.BlockSize-9 {
		end = 2 * sha1.BlockSize
	}
	e.pad[n] = 0x80
	clear(e.pad[n+1 : end-8])
	binary.BigEndian.PutUint64(e.pad[end-8:end], uint64(total)*8)
	blockSHANI(h, e.pad[:end])
}
