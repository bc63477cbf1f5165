//go:build !amd64

package swcrypto

// useSHANI is false where there is no blockSHANI: every Engine runs the
// crypto/hmac kernel.
var useSHANI = false

func blockSHANI(h *[5]uint32, p []byte) {
	panic("swcrypto: no SHA-NI kernel in this build")
}
