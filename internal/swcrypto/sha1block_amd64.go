//go:build amd64

package swcrypto

// blockSHANI compresses the 64-byte blocks of p into h on the SHA
// extensions. A tail shorter than a block is left alone.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// useSHANI selects the blockSHANI kernel for Engines built from now on:
// the CPU has the SHA extensions (CPUID leaf 7 EBX bit 29) and the SSSE3
// and SSE4.1 instructions the kernel also uses (leaf 1 ECX bits 9 and 19).
var useSHANI = haveSHANI()

func haveSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}
