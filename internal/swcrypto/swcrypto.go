// Package swcrypto is the software cryptographic engine behind the
// CPU-only IPsec gateway baseline — the stand-in for the Intel-ipsec-mb
// multi-buffer library used in the paper's evaluation (§V-B1).
//
// It provides the exact cipher suite the paper evaluates: AES-256 in CTR
// mode for confidentiality plus HMAC-SHA1 for authentication, with a
// multi-buffer batch API mirroring Intel-ipsec-mb's job model. The hardware
// ipsec-crypto accelerator module reuses this same engine functionally (so
// ciphertext is identical on either path) while adding the FPGA service
// model on top.
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

	// mac lives as long as the Engine. crypto/hmac saves the marshaled
	// SHA-1 states after the ipad and opad blocks on its first Reset and
	// restores them on every later Reset and Sum, in place of hmac.New's
	// two compressions and six allocations per packet.
	mac hash.Hash

	// ctr is the RFC 3686 counter block: the salt is written once, the
	// IV and block counter per packet.
	ctr [aes.BlockSize]byte
	ks  [aes.BlockSize]byte
	// sum holds the IV on the way into the MAC and the digest on the
	// way out.
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
	e := &Engine{block: block, mac: hmac.New(sha1.New, cfg.AuthKey)}
	binary.BigEndian.PutUint32(e.ctr[0:4], cfg.Salt)
	e.mac.Reset() // saves the pad states now, not on the first packet
	return e, nil
}

// ctrShortMax is the longest payload the in-place single-block CTR
// handles; longer ones go to cipher.NewCTR, whose 8-block pipelined
// keystream wins once its constructor (a 512-byte allocation holding a
// copy of the key schedule) is amortized. Measured on the 2.1 GHz Xeon
// this was written on, medians of 11 runs, keystream only: single-block
// costs 1.7 ns/B from zero (125 ns at 64 B, 240 ns at 160 B, 480 ns at
// 256 B, 2.7 us at 1500 B); NewCTR costs 180-210 ns up to 192 B, 260 ns
// at 256 B and 570 ns at 1500 B with GOMAXPROCS=1, and two to three times
// that below 256 B with GOMAXPROCS=2, where the collector it feeds runs
// beside it. The two meet at 110-160 B on one CPU and at about 250 B on
// two; 160 is even on one and ahead on two.
const ctrShortMax = 160

// xorKeyStream applies the AES-256-CTR keystream for iv to p in place.
// The counter block is RFC 3686's: salt, IV, 32-bit block counter from 1.
func (e *Engine) xorKeyStream(p []byte, iv uint64) {
	binary.BigEndian.PutUint64(e.ctr[4:12], iv)
	if len(p) > ctrShortMax {
		binary.BigEndian.PutUint32(e.ctr[12:16], 1)
		cipher.NewCTR(e.block, e.ctr[:]).XORKeyStream(p, p)
		return
	}
	e.xorKeyStreamShort(p)
}

// xorKeyStreamShort is the allocation-free path: one block.Encrypt per
// 16 bytes into Engine scratch, XORed into p. The caller has put the IV
// in the counter block.
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
	e.mac.Reset()
	binary.BigEndian.PutUint64(e.sum[:IVSize], iv)
	e.mac.Write(e.sum[:IVSize])
	e.mac.Write(ciphertext)
	var out [TagSize]byte
	copy(out[:], e.mac.Sum(e.sum[:0]))
	return out
}
