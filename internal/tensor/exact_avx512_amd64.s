// AVX-512 block kernels for the exact accumulator's dense sweeps: the add's
// two TwoSums, the merge's three, and the round's hi + lo. Eight coordinates
// a block, whole blocks only; AX counts the coordinates done. A block whose
// residual is not ±0 in some lane is not stored: the kernel returns its
// index and the caller's scalar code takes it.
//
// Each TwoSum is Knuth's six operations in the scalar code's order, so a
// stored lane is the scalar result bit for bit. The residual test is the
// scalar Float64bits(e)<<1 != 0: VPTESTMQ against Z31 = 0x7FF…F, which
// every bit but the sign sets. A NaN or ±Inf operand makes the residual NaN
// and so always reaches the scalar code.
//
// Instruction-set note: VADDPD, VSUBPD, VMULPD, VPORQ, VPTESTMQ, KORTESTW,
// VPBROADCASTQ and the zero-masked VMOVUPD are all AVX-512F, which the F+DQ
// probe in detectAVX512 covers.

#include "textflag.h"

// ABSMASK sets Z31 to 0x7FFFFFFFFFFFFFFF in every qword. Clobbers DX.
#define ABSMASK \
	MOVQ $0x7FFFFFFFFFFFFFFF, DX; \
	VPBROADCASTQ DX, Z31

// TWOSUM(a, b, s, e, v, u): s = fl(a+b) and s + e = a + b exactly, as
// s = a+b; v = s−a; e = (a−(s−v)) + (b−v). a and b are left intact.
#define TWOSUM(a, b, s, e, v, u) \
	VADDPD b, a, s; \
	VSUBPD a, s, v; \
	VSUBPD v, s, u; \
	VSUBPD u, a, u; \
	VSUBPD v, b, e; \
	VADDPD e, u, e

// func exactAddAVX(hi, lo, x *float64, blocks uintptr, w float64) uintptr
TEXT ·exactAddAVX(SB), NOSPLIT, $0-48
	MOVQ hi+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ blocks+24(FP), CX
	VBROADCASTSD w+32(FP), Z0
	ABSMASK
	XORQ AX, AX

addloop:
	VMULPD (BX)(AX*8), Z0, Z1         // x = fl(w·x)
	VMOVUPD (DI)(AX*8), Z2
	TWOSUM(Z2, Z1, Z3, Z4, Z8, Z9)    // s, e = TwoSum(hi, x)
	VMOVUPD (SI)(AX*8), Z5
	TWOSUM(Z5, Z4, Z6, Z7, Z8, Z9)    // t, e2 = TwoSum(lo, e)
	VPTESTMQ Z31, Z7, K1
	KORTESTW K1, K1
	JNZ  adddone
	VMOVUPD Z3, (DI)(AX*8)
	VMOVUPD Z6, (SI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JNZ  addloop

adddone:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func exactMergeAVX(hi, lo, bhi, blo *float64, blocks uintptr) uintptr
TEXT ·exactMergeAVX(SB), NOSPLIT, $0-48
	MOVQ hi+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ bhi+16(FP), BX
	MOVQ blo+24(FP), R8
	MOVQ blocks+32(FP), CX
	ABSMASK
	XORQ AX, AX

mergeloop:
	VMOVUPD (DI)(AX*8), Z1
	VMOVUPD (BX)(AX*8), Z2
	TWOSUM(Z1, Z2, Z3, Z4, Z8, Z9)    // s, e = TwoSum(hi, bhi)
	VMOVUPD (SI)(AX*8), Z5
	TWOSUM(Z5, Z4, Z6, Z7, Z8, Z9)    // t, e2 = TwoSum(lo, e)
	VMOVUPD (R8)(AX*8), Z10
	TWOSUM(Z6, Z10, Z11, Z12, Z8, Z9) // t, e3 = TwoSum(t, blo)
	VPORQ Z7, Z12, Z7
	VPTESTMQ Z31, Z7, K1
	KORTESTW K1, K1
	JNZ  mergedone
	VMOVUPD Z3, (DI)(AX*8)
	VMOVUPD Z11, (SI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JNZ  mergeloop

mergedone:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func exactRoundAVX(dst, hi, lo *float64, blocks uintptr)
// dst = hi + lo, with the ±0 lanes (those VPTESTMQ leaves clear) zeroed to +0.
TEXT ·exactRoundAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ hi+8(FP), SI
	MOVQ lo+16(FP), BX
	MOVQ blocks+24(FP), CX
	ABSMASK
	XORQ AX, AX

roundloop:
	VMOVUPD (SI)(AX*8), Z1
	VADDPD (BX)(AX*8), Z1, Z1
	VPTESTMQ Z31, Z1, K1
	VMOVUPD.Z Z1, K1, Z1
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JNZ  roundloop

	VZEROUPPER
	RET
