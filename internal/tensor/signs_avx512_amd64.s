// AVX-512 sign kernels for the relevance check (Eq. 9): signs of a float
// vector as bytes, the count of coordinates whose sign equals a byte vector,
// and the fused "difference in place + its signs + any non-zero" sweep of the
// emu client. Eight coordinates per step; the tail goes through the same
// sequence under a lane mask (masked-off lanes are neither read nor written).
// Beside them, the magnitude sweep of top-k selection, sixteen coordinates a
// step, whose tail of fewer than sixteen the Go loop finishes.
//
// A coordinate's sign is two ordered compares against zero, so ±0 and NaN
// (which fails both) come out 0, and it is materialised as a qword −1/0/+1:
// VPMOVQB narrows eight of them to the eight bytes stored, VPMOVSXBQ widens
// eight stored bytes to compare against them.
//
// Instruction-set note: everything here is AVX-512F (VCMPPD→k, masked
// VMOVDQA64, VPMOVQB, VPMOVSXBQ, VPCMPEQQ→k, VPCMPUQ→k, VPADDQ, VPADDD,
// VPSLLQ, VPORQ, VPTESTMQ, VPTERNLOGQ, VPBROADCASTQ/D, VPCOMPRESSD,
// VEXTRACTI64X4, KMOVW, KUNPCKBW, KORTESTW) or older (VEXTRACTI128,
// VPSRLDQ). No AVX-512BW/VL instruction is used, so the F+DQ probe in
// detectAVX512 covers these kernels; it also requires the POPCNT bit the
// magnitude sweep relies on.

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

// Lane j of a block holds coordinate j: the indices the first step stores.
DATA atLeastIota<>+0(SB)/8, $0x0000000100000000
DATA atLeastIota<>+8(SB)/8, $0x0000000300000002
DATA atLeastIota<>+16(SB)/8, $0x0000000500000004
DATA atLeastIota<>+24(SB)/8, $0x0000000700000006
DATA atLeastIota<>+32(SB)/8, $0x0000000900000008
DATA atLeastIota<>+40(SB)/8, $0x0000000b0000000a
DATA atLeastIota<>+48(SB)/8, $0x0000000d0000000c
DATA atLeastIota<>+56(SB)/8, $0x0000000f0000000e
GLOBL atLeastIota<>(SB), RODATA|NOPTR, $64

// func indicesAtLeastAVX(dst *uint32, room uintptr, v *float64, n uintptr, floor2 uint64) (written, read uintptr)
// Stores, ascending, the index i of every v[i] with bits<<1 >= floor2, over
// whole blocks of sixteen coordinates, while the next block's 64-byte store
// fits in dst's room (>= 16) entries. Each step compares two qword halves
// unsigned, joins their masks into one of sixteen bits, compresses the
// lanes' indices into a register (the memory form of VPCOMPRESSD is
// microcoded on some cores) and stores all sixteen: the ones past the
// mask's count are overwritten by the next step or lie beyond the result.
// Returns how many indices it stored and how many coordinates it read.
TEXT ·indicesAtLeastAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ room+8(FP), R8
	MOVQ v+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ floor2+32(FP), AX
	VPBROADCASTQ AX, Z0
	VMOVDQU32 atLeastIota<>(SB), Z1
	MOVL $16, AX
	VPBROADCASTD AX, Z2
	MOVQ DI, R9                // the start of both, for the counts
	MOVQ SI, R10
	LEAQ -64(DI)(R8*4), R8     // the last store address inside the room
	ANDQ $~15, CX
	LEAQ (SI)(CX*8), CX        // the end of the whole blocks
	CMPQ SI, CX
	JAE  atleastdone

atleastloop:
	VMOVDQU64 (SI), Z3
	VMOVDQU64 64(SI), Z4
	VPSLLQ $1, Z3, Z3          // drop the sign bit
	VPSLLQ $1, Z4, Z4
	VPCMPUQ $5, Z0, Z3, K1     // predicate 5 is NLT: bits<<1 >= floor2
	VPCMPUQ $5, Z0, Z4, K2
	KUNPCKBW K1, K2, K3        // K3 = K2<<8 | K1
	VPCOMPRESSD.Z Z1, K3, Z5
	VMOVDQU32 Z5, (DI)
	KMOVW K3, AX
	POPCNTL AX, AX
	LEAQ (DI)(AX*4), DI
	VPADDD Z2, Z1, Z1
	ADDQ $128, SI
	CMPQ DI, R8
	JA   atleastdone
	CMPQ SI, CX
	JB   atleastloop

atleastdone:
	SUBQ R9, DI
	SHRQ $2, DI
	MOVQ DI, written+40(FP)
	SUBQ R10, SI
	SHRQ $3, SI
	MOVQ SI, read+48(FP)
	VZEROUPPER
	RET
