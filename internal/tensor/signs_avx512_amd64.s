// AVX-512 sign kernels for the relevance check (Eq. 9): signs of a float
// vector as bytes, the count of coordinates whose sign equals a byte vector,
// and the fused "difference in place + its signs + any non-zero" sweep of the
// emu client. Eight coordinates per step; the tail goes through the same
// sequence under a lane mask (masked-off lanes are neither read nor written).
//
// A coordinate's sign is two ordered compares against zero, so ±0 and NaN
// (which fails both) come out 0, and it is materialised as a qword −1/0/+1:
// VPMOVQB narrows eight of them to the eight bytes stored, VPMOVSXBQ widens
// eight stored bytes to compare against them.
//
// Instruction-set note: everything here is AVX-512F (VCMPPD→k, masked
// VMOVDQA64, VPMOVQB, VPMOVSXBQ, VPCMPEQQ→k, VPADDQ, VPORQ, VPTESTMQ,
// VPTERNLOGQ, VPBROADCASTQ, VEXTRACTI64X4, KMOVW, KORTESTW) or older
// (VEXTRACTI128, VPSRLDQ). No AVX-512BW/VL instruction is used, so the F+DQ
// probe in detectAVX512 covers these kernels.

#include "textflag.h"

// SIGNCONSTS loads Z0 = 0.0, Z30 = +1 and Z31 = −1 in every qword.
#define SIGNCONSTS \
	VPXORQ Z0, Z0, Z0; \
	MOVQ $1, AX; \
	VPBROADCASTQ AX, Z30; \
	VPTERNLOGQ $0xff, Z31, Z31, Z31

// SIGNQ(x, out) sets out to the sign of every double of x as a qword.
// Predicates 30 and 17 are GT_OQ and LT_OQ: ordered, quiet on NaN.
#define SIGNQ(x, out) \
	VCMPPD $30, Z0, x, K1; \
	VCMPPD $17, Z0, x, K2; \
	VMOVDQA64.Z Z30, K1, out; \
	VMOVDQA64 Z31, K2, out

// TAILMASK sets K7 to the low DX bits (0 < DX < 8). Clobbers AX and CX.
#define TAILMASK \
	MOVQ $1, AX; \
	MOVQ DX, CX; \
	SHLQ CX, AX; \
	DECQ AX; \
	KMOVW AX, K7

// func signsAVX(dst *int8, v *float64, n uintptr)
// dst[i] = sign(v[i]) for i in [0, n)
TEXT ·signsAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	SIGNCONSTS
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   signstail

signsloop:
	VMOVUPD (SI), Z1
	SIGNQ(Z1, Z2)
	VPMOVQB Z2, (DI)
	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  signsloop

signstail:
	TESTQ DX, DX
	JZ    signsdone
	TAILMASK
	VMOVUPD.Z (SI), K7, Z1
	SIGNQ(Z1, Z2)
	VPMOVQB Z2, K7, (DI)

signsdone:
	VZEROUPPER
	RET

// func signMatchesAVX(v *float64, signs *int8, n uintptr) uintptr
// the number of i in [0, n) with sign(v[i]) == signs[i]
TEXT ·signMatchesAVX(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), SI
	MOVQ signs+8(FP), BX
	MOVQ n+16(FP), CX
	SIGNCONSTS
	VPXORQ Z4, Z4, Z4          // eight running match counts
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   matchtail

matchloop:
	VMOVUPD (SI), Z1
	SIGNQ(Z1, Z2)
	VPMOVSXBQ (BX), Z3
	VPCMPEQQ Z3, Z2, K3
	VPADDQ Z30, Z4, K3, Z4
	ADDQ $64, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  matchloop

matchtail:
	TESTQ DX, DX
	JZ    matchsum
	TAILMASK
	VMOVUPD.Z (SI), K7, Z1
	SIGNQ(Z1, Z2)
	VPMOVSXBQ.Z (BX), K7, Z3
	VPCMPEQQ Z3, Z2, K7, K3    // masked-off lanes never match
	VPADDQ Z30, Z4, K3, Z4

matchsum:
	VEXTRACTI64X4 $1, Z4, Y5
	VPADDQ Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSRLDQ $8, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func subSignsAVX(dst *int8, prev, cur *float64, n uintptr) bool
// prev[i] = cur[i] − prev[i], dst[i] = sign(prev[i]); reports whether any
// difference is non-zero. Z5 ORs the differences together: it ends with a bit
// set below the sign bit in some lane exactly when one of them was not ±0.
TEXT ·subSignsAVX(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ prev+8(FP), SI
	MOVQ cur+16(FP), BX
	MOVQ n+24(FP), CX
	SIGNCONSTS
	VPXORQ Z5, Z5, Z5
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   subtail

subloop:
	VMOVUPD (BX), Z1
	VSUBPD (SI), Z1, Z1
	VMOVUPD Z1, (SI)
	VPORQ Z1, Z5, Z5
	SIGNQ(Z1, Z2)
	VPMOVQB Z2, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $8, DI
	DECQ CX
	JNZ  subloop

subtail:
	TESTQ DX, DX
	JZ    subdone
	TAILMASK
	VMOVUPD.Z (BX), K7, Z1
	VMOVUPD.Z (SI), K7, Z3
	VSUBPD Z3, Z1, Z1          // masked-off lanes: 0 − 0
	VMOVUPD Z1, K7, (SI)
	VPORQ Z1, Z5, Z5
	SIGNQ(Z1, Z2)
	VPMOVQB Z2, K7, (DI)

subdone:
	VPSLLQ $1, Z5, Z5          // drop the sign bit: −0 is zero
	VPTESTMQ Z5, Z5, K3
	KORTESTW K3, K3
	SETNE ret+32(FP)
	VZEROUPPER
	RET
