//go:build amd64

#include "textflag.h"

// SHA-1 on the SHA extensions, after Intel's published sample
// ("Intel SHA Extensions", 2013). ABCD holds a..d with a in the top
// lane; E0 and E1 take turns holding e (as SHA1NEXTE leaves it) for the
// next four rounds. The 16-word schedule lives in MSG0..MSG3. Of the 20
// four-round groups, groups 1-16 run SHA1MSG1, which starts the words group
// g+3 takes; groups 2-17 a PXOR into those of group g+2; groups 3-18
// SHA1MSG2, which finishes those of group g+1.
#define ABCD X0
#define E0 X1
#define E1 X2
#define MSG0 X3
#define MSG1 X4
#define MSG2 X5
#define MSG3 X6
#define SHUF X7
#define SAVE_E X8
#define SAVE_ABCD X9

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX
	SHLQ $6, DX
	JZ   done
	ADDQ SI, DX

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  flipMask<>(SB), SHUF

loop:
	MOVO E0, SAVE_E
	MOVO ABCD, SAVE_ABCD

	// Rounds 0-3
	MOVOU     (SI), MSG0
	PSHUFB    SHUF, MSG0
	PADDD     MSG0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	// Rounds 4-7
	MOVOU     16(SI), MSG1
	PSHUFB    SHUF, MSG1
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  MSG1, MSG0

	// Rounds 8-11
	MOVOU     32(SI), MSG2
	PSHUFB    SHUF, MSG2
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// Rounds 12-15
	MOVOU     48(SI), MSG3
	PSHUFB    SHUF, MSG3
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// Rounds 16-19
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $0, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// Rounds 20-23
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $1, E1, ABCD
	SHA1MSG1  MSG1, MSG0
	PXOR      MSG1, MSG3

	// Rounds 24-27
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $1, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// Rounds 28-31
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $1, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// Rounds 32-35
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $1, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// Rounds 36-39
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $1, E1, ABCD
	SHA1MSG1  MSG1, MSG0
	PXOR      MSG1, MSG3

	// Rounds 40-43
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $2, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// Rounds 44-47
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $2, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// Rounds 48-51
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $2, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// Rounds 52-55
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $2, E1, ABCD
	SHA1MSG1  MSG1, MSG0
	PXOR      MSG1, MSG3

	// Rounds 56-59
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $2, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// Rounds 60-63
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $3, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// Rounds 64-67
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $3, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// Rounds 68-71
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $3, E1, ABCD
	PXOR      MSG1, MSG3

	// Rounds 72-75
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $3, E0, ABCD

	// Rounds 76-79
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $3, E1, ABCD

	// Add this block's result to the state it started from.
	SHA1NEXTE SAVE_E, E0
	PADDD     SAVE_ABCD, ABCD

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// flipMask reverses the 16 bytes of a register: four big-endian message
// words, the first in the top lane.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16
