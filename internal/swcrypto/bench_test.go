package swcrypto

import (
	"fmt"
	"testing"
)

// BenchmarkSeal measures the real Go cost of the CPU-only IPsec data
// path (AES-256-CTR + HMAC-SHA1) per packet size — the native-code
// analogue of Table I's 796-cycle figure.
func BenchmarkSeal(b *testing.B) {
	key := make([]byte, KeySize)
	auth := make([]byte, AuthKeySize)
	e, err := NewEngine(Config{Key: key, AuthKey: auth})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 256, 1024, 1500} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			buf := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Seal(buf, uint64(i))
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	key := make([]byte, KeySize)
	auth := make([]byte, AuthKeySize)
	e, err := NewEngine(Config{Key: key, AuthKey: auth})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1024)
	tag := e.Seal(buf, 1)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-open the same ciphertext; Open decrypts in place, so flip it
		// back by re-sealing outside the timed region would distort the
		// measurement — instead alternate seal/open and count both.
		if i%2 == 0 {
			if err := e.Open(buf, 1, tag); err != nil {
				b.Fatal(err)
			}
		} else {
			tag = e.Seal(buf, 1)
		}
	}
}
