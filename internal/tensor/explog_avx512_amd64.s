// AVX-512 transcriptions of Go's amd64 math.archExp (exp_amd64.s, the FMA
// branch) and math.archLog (log_amd64.s), eight lanes at a time. A lane runs
// the scalar routine's IEEE operations in its order, with its constants, so
// what a kernel stores is math.Exp or math.Log of the input bit for bit.
//
// Each kernel takes only inputs on its routine's straight path: exp x in
// [−708, 709] (there the scaled exponent k+1023 lies in [2, 2046], so
// archExp neither saturates nor goes subnormal), log x positive, normal and
// finite. A block with any other lane is not stored: the kernel returns its
// index and the caller runs math.Exp or math.Log on it. The last, partial
// block runs under a lane mask; its masked-out lanes load an in-range value
// (0 for exp, 1 for log), so they never fail the gate, and are not stored.
//
// The constants come from the RODATA table below through EVEX broadcasts.
// No legacy-SSE instruction (MOVSD and the like) may appear here: one after
// the ZMM registers are dirty costs an SSE/AVX state transition per call.
//
// Instruction-set note: VCVTPD2QQ, VCVTQQ2PD and KORTESTB are AVX-512DQ,
// the rest AVX-512F; the FMA chain is archExp's useFMA branch, which
// detectAVX512 makes a condition of the kernels.

#include "textflag.h"

// archExp's constants, then archLog's.
DATA explogc<>+0(SB)/8, $0x3ff71547652b82fe   // LOG2E
DATA explogc<>+8(SB)/8, $0x3fe62e42fefa3000   // LN2U
DATA explogc<>+16(SB)/8, $0x3d53de6af278ece6  // LN2L
DATA explogc<>+24(SB)/8, $0x3fb0000000000000  // 0.0625
DATA explogc<>+32(SB)/8, $0x3efa01a01a01a01a  // 1/8!
DATA explogc<>+40(SB)/8, $0x3f2a01a01a01a01a  // 1/7!
DATA explogc<>+48(SB)/8, $0x3f56c16c16c16c17  // 1/6!
DATA explogc<>+56(SB)/8, $0x3f81111111111111  // 1/5!
DATA explogc<>+64(SB)/8, $0x3fa5555555555555  // 1/4!
DATA explogc<>+72(SB)/8, $0x3fc5555555555555  // 1/3!
DATA explogc<>+80(SB)/8, $0x3fe0000000000000  // 0.5
DATA explogc<>+88(SB)/8, $0x3ff0000000000000  // 1.0
DATA explogc<>+96(SB)/8, $0x4000000000000000  // 2.0
DATA explogc<>+104(SB)/8, $0xc086200000000000 // -708, the gate's low end
DATA explogc<>+112(SB)/8, $0x4086280000000000 // 709, the gate's high end
DATA explogc<>+120(SB)/8, $0x3ff              // exponent bias
DATA explogc<>+128(SB)/8, $0x0010000000000000 // smallest normal
DATA explogc<>+136(SB)/8, $0x7fe0000000000000 // +Inf − smallest normal
DATA explogc<>+144(SB)/8, $0x000fffffffffffff // mantissa mask
DATA explogc<>+152(SB)/8, $0x3fe              // frexp's exponent bias
DATA explogc<>+160(SB)/8, $0x3fe6a09e667f3bcd // HSqrt2
DATA explogc<>+168(SB)/8, $0x3fe5555555555593 // L1
DATA explogc<>+176(SB)/8, $0x3fd999999997fa04 // L2
DATA explogc<>+184(SB)/8, $0x3fd2492494229359 // L3
DATA explogc<>+192(SB)/8, $0x3fcc71c51d8e78af // L4
DATA explogc<>+200(SB)/8, $0x3fc7466496cb03de // L5
DATA explogc<>+208(SB)/8, $0x3fc39a09d078c69f // L6
DATA explogc<>+216(SB)/8, $0x3fc2f112df3e5244 // L7
DATA explogc<>+224(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA explogc<>+232(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
GLOBL explogc<>(SB), RODATA|NOPTR, $240

// func expAVX(dst, x *float64, n uintptr) uintptr
TEXT ·expAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), DX
	VBROADCASTSD explogc<>+0(SB), Z16
	VBROADCASTSD explogc<>+8(SB), Z17
	VBROADCASTSD explogc<>+16(SB), Z18
	VBROADCASTSD explogc<>+24(SB), Z19
	VBROADCASTSD explogc<>+32(SB), Z20
	VBROADCASTSD explogc<>+40(SB), Z21
	VBROADCASTSD explogc<>+48(SB), Z22
	VBROADCASTSD explogc<>+56(SB), Z23
	VBROADCASTSD explogc<>+64(SB), Z24
	VBROADCASTSD explogc<>+72(SB), Z25
	VBROADCASTSD explogc<>+80(SB), Z26
	VBROADCASTSD explogc<>+88(SB), Z27
	VBROADCASTSD explogc<>+96(SB), Z28
	VBROADCASTSD explogc<>+104(SB), Z29
	VBROADCASTSD explogc<>+112(SB), Z30
	VPBROADCASTQ explogc<>+120(SB), Z31
	XORQ AX, AX
	MOVL $0xff, BX
	KMOVB BX, K2

exploop:
	MOVQ DX, CX                       // lanes left: none ends the run,
	SUBQ AX, CX                       // fewer than eight narrow K2
	JBE  expend
	CMPQ CX, $8
	JAE  expfull
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
	KMOVB BX, K2

expfull:
	VPXORQ  Z0, Z0, Z0
	VMOVUPD (SI)(AX*8), K2, Z0
	VCMPPD  $0x1d, Z29, Z0, K1        // x >= -708 (GE_OQ: NaN fails)
	VCMPPD  $0x12, Z30, Z0, K1, K1    // and x <= 709 (LE_OQ)
	KORTESTB K1, K1
	JCC     expdone                   // some lane is off the straight path

	// k = round(x·LOG2E), to nearest as CVTSD2SL rounds
	VMULPD    Z16, Z0, Z1
	VCVTPD2QQ Z1, Z2
	VCVTQQ2PD Z2, Z1
	// x − k·LN2U − k·LN2L, each fused, then the 1/16 argument reduction
	VFNMADD231PD Z17, Z1, Z0
	VFNMADD231PD Z18, Z1, Z0
	VMULPD       Z19, Z0, Z0
	// Taylor series, Horner with fused steps
	VMOVAPD      Z20, Z3
	VFMADD213PD  Z21, Z0, Z3
	VFMADD213PD  Z22, Z0, Z3
	VFMADD213PD  Z23, Z0, Z3
	VFMADD213PD  Z24, Z0, Z3
	VFMADD213PD  Z25, Z0, Z3
	VFMADD213PD  Z26, Z0, Z3
	VFMADD213PD  Z27, Z0, Z3
	VMULPD       Z3, Z0, Z0
	// four squarings of (1+y)−1: y = y·(y+2), the last one fused with +1
	VADDPD       Z28, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VFMADD213PD  Z27, Z3, Z0
	// · 2^k
	VPADDQ       Z31, Z2, Z2
	VPSLLQ       $52, Z2, Z2
	VMULPD       Z2, Z0, Z0
	VMOVUPD      Z0, K2, (DI)(AX*8)
	ADDQ $8, AX
	JMP  exploop

expend:
	MOVQ DX, AX

expdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func logAVX(dst, x *float64, n uintptr) uintptr
TEXT ·logAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), DX
	VPBROADCASTQ explogc<>+128(SB), Z13
	VPBROADCASTQ explogc<>+136(SB), Z14
	VPBROADCASTQ explogc<>+144(SB), Z15
	VBROADCASTSD explogc<>+80(SB), Z16    // 0.5
	VBROADCASTSD explogc<>+88(SB), Z17    // 1.0
	VBROADCASTSD explogc<>+96(SB), Z18    // 2.0
	VPBROADCASTQ explogc<>+152(SB), Z19
	VBROADCASTSD explogc<>+160(SB), Z20
	VBROADCASTSD explogc<>+168(SB), Z21
	VBROADCASTSD explogc<>+176(SB), Z22
	VBROADCASTSD explogc<>+184(SB), Z23
	VBROADCASTSD explogc<>+192(SB), Z24
	VBROADCASTSD explogc<>+200(SB), Z25
	VBROADCASTSD explogc<>+208(SB), Z26
	VBROADCASTSD explogc<>+216(SB), Z27
	VBROADCASTSD explogc<>+224(SB), Z28
	VBROADCASTSD explogc<>+232(SB), Z29
	XORQ AX, AX
	MOVL $0xff, BX
	KMOVB BX, K2

logloop:
	MOVQ DX, CX                       // lanes left: none ends the run,
	SUBQ AX, CX                       // fewer than eight narrow K2
	JBE  logend
	CMPQ CX, $8
	JAE  logfull
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
	KMOVB BX, K2

logfull:
	VMOVAPD Z17, Z0
	VMOVUPD (SI)(AX*8), K2, Z0
	VPSUBQ  Z13, Z0, Z1
	VPCMPUQ $1, Z14, Z1, K1           // positive, normal and finite
	KORTESTB K1, K1
	JCC     logdone

	// f1, k = frexp(x)
	VPANDQ    Z15, Z0, Z2
	VPORQ     Z16, Z2, Z2
	VPSRLQ    $52, Z0, Z1
	VPSUBQ    Z19, Z1, Z1
	VCVTQQ2PD Z1, Z1
	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }: archLog's CMPSD is NLT with
	// the bound first, so a tie takes the branch, unlike log.go's f1 < Sqrt2/2
	VCMPPD    $0x12, Z20, Z2, K3      // LE_OQ
	VSUBPD    Z17, Z1, K3, Z1
	VMULPD    Z18, Z2, K3, Z2
	// f = f1 − 1; s = f/(2+f); s2 = s·s; s4 = s2·s2
	VSUBPD    Z17, Z2, Z2
	VADDPD    Z2, Z18, Z3
	VDIVPD    Z3, Z2, Z3
	VMULPD    Z3, Z3, Z4
	VMULPD    Z4, Z4, Z5
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD    Z27, Z5, Z6
	VADDPD    Z25, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VADDPD    Z23, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VADDPD    Z21, Z6, Z6
	VMULPD    Z6, Z4, Z4
	// t2 = s4·(L2 + s4·(L4 + s4·L6))
	VMULPD    Z26, Z5, Z6
	VADDPD    Z24, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VADDPD    Z22, Z6, Z6
	VMULPD    Z6, Z5, Z5
	// R = t1 + t2; hfsq = 0.5·f·f
	VADDPD    Z5, Z4, Z4
	VMULPD    Z16, Z2, Z7
	VMULPD    Z2, Z7, Z7
	// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
	VADDPD    Z7, Z4, Z4
	VMULPD    Z4, Z3, Z3
	VMULPD    Z29, Z1, Z4
	VADDPD    Z4, Z3, Z3
	VSUBPD    Z3, Z7, Z7
	VSUBPD    Z2, Z7, Z7
	VMULPD    Z28, Z1, Z1
	VSUBPD    Z7, Z1, Z1
	VMOVUPD   Z1, K2, (DI)(AX*8)
	ADDQ $8, AX
	JMP  logloop

logend:
	MOVQ DX, AX

logdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func maxShiftAVX(dst, x *float64, rows, cols uintptr)
// Per row of cols ≥ 1 values: m = the row's max as the scalar scan
// m = row[0]; if v > m { m = v } takes it, then dst[j] = x[j] − m. Every
// lane starts from row[0], and VMAXPD keeps its second source unless the
// first is greater, which is the scan's step: a NaN never replaces m, and
// a NaN row[0] is never replaced. The lanes' maxima then combine by the
// same step. Of two zeros it may keep the other sign than the scan; that
// changes x − m only from +0 to −0 or back, which exp maps to 1 alike.
TEXT ·maxShiftAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), DX
	// R9 whole blocks before each row's last one, whose lanes K3 masks
	MOVQ DX, CX
	DECQ CX
	MOVQ CX, R9
	SHRQ $3, R9
	ANDQ $7, CX
	INCQ CX
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
	KMOVB BX, K3
	SHLQ $3, DX                       // row stride in bytes

rowloop:
	TESTQ R8, R8
	JZ    rowsdone
	VBROADCASTSD (SI), Z0             // every lane starts from row[0]
	VMOVAPD Z0, Z1
	XORQ AX, AX
	MOVQ R9, R10

maxloop:
	TESTQ R10, R10
	JZ    maxlast
	VMOVUPD (SI)(AX*1), Z2
	VMAXPD  Z1, Z2, Z1                // m = v > m ? v : m
	ADDQ $64, AX
	DECQ R10
	JMP  maxloop

maxlast:
	VMOVAPD Z0, Z2
	VMOVUPD (SI)(AX*1), K3, Z2
	VMAXPD  Z1, Z2, Z1
	VSHUFF64X2 $0x4e, Z1, Z1, Z2      // combine the halves,
	VMAXPD  Z1, Z2, Z1
	VSHUFF64X2 $0xb1, Z1, Z1, Z2      // the quarters,
	VMAXPD  Z1, Z2, Z1
	VPERMILPD $0x55, Z1, Z2           // and the pairs: m in every lane
	VMAXPD  Z1, Z2, Z1
	XORQ AX, AX
	MOVQ R9, R10

shiftloop:
	TESTQ R10, R10
	JZ    shiftlast
	VMOVUPD (SI)(AX*1), Z2
	VSUBPD  Z1, Z2, Z2
	VMOVUPD Z2, (DI)(AX*1)
	ADDQ $64, AX
	DECQ R10
	JMP  shiftloop

shiftlast:
	VMOVUPD.Z (SI)(AX*1), K3, Z2
	VSUBPD  Z1, Z2, Z2
	VMOVUPD Z2, K3, (DI)(AX*1)
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ R8
	JMP  rowloop

rowsdone:
	VZEROUPPER
	RET
