// AVX-512 kernel for the 2×2, stride-2 max pool (see maxpool.go for the
// semantics it must reproduce). Eight outputs per step: sixteen doubles of
// each of the two input rows are loaded and deinterleaved by VPERMT2PD into
// the four window positions (0,0), (0,1), (1,0), (1,1), one output per lane,
// and the running maximum and its index are updated by four ordered
// compare-and-blend steps in that order. GT_OQ is strict and false on NaN, so
// the first maximum wins a tie and a NaN is never selected; the index vector
// starts at each window's own (0,0) element. A row's last ow mod 8 outputs go
// through the same sequence under lane masks (masked-off lanes are neither
// read nor written).
//
// Instruction-set note: everything here is AVX-512F (VPERMT2PD, VCMPPD→k,
// masked VMOVAPD/VMOVDQA64/VMOVUPD/VMOVDQU64, VPADDQ, VPBROADCASTQ, KMOVW),
// so the F+DQ probe in detectAVX512 covers this kernel.

#include "textflag.h"

// Lane j of an output step owns input columns 2j and 2j+1: poolEven is both
// the VPERMT2PD selector of the even columns and the lanes' index offsets.
DATA poolEven<>+0(SB)/8, $0
DATA poolEven<>+8(SB)/8, $2
DATA poolEven<>+16(SB)/8, $4
DATA poolEven<>+24(SB)/8, $6
DATA poolEven<>+32(SB)/8, $8
DATA poolEven<>+40(SB)/8, $10
DATA poolEven<>+48(SB)/8, $12
DATA poolEven<>+56(SB)/8, $14
GLOBL poolEven<>(SB), RODATA|NOPTR, $64

// POOLSELECT turns the row halves Z1:Z2 (top) and Z3:Z4 (bottom) into the
// eight maxima (Z7) and their indices (Z8). It deinterleaves them into
// Z5 = (0,0), Z1 = (0,1), Z6 = (1,0), Z3 = (1,1), then runs the four steps;
// the first moves no index because Z8 starts as Z20, the indices of the (0,0)
// elements. Z28/Z29 select even/odd columns; Z30 = −Inf, Z26 = 1 and Z25 = w
// in every lane. Predicate 30 is GT_OQ.
#define POOLSELECT \
	VMOVAPD Z1, Z5; \
	VPERMT2PD Z2, Z28, Z5; \
	VPERMT2PD Z2, Z29, Z1; \
	VMOVAPD Z3, Z6; \
	VPERMT2PD Z4, Z28, Z6; \
	VPERMT2PD Z4, Z29, Z3; \
	VMOVAPD Z30, Z7; \
	VMOVDQA64 Z20, Z8; \
	VCMPPD $30, Z7, Z5, K1; \
	VMOVAPD Z5, K1, Z7; \
	VPADDQ Z26, Z20, Z9; \
	VCMPPD $30, Z7, Z1, K1; \
	VMOVAPD Z1, K1, Z7; \
	VMOVDQA64 Z9, K1, Z8; \
	VPADDQ Z25, Z20, Z9; \
	VCMPPD $30, Z7, Z6, K1; \
	VMOVAPD Z6, K1, Z7; \
	VMOVDQA64 Z9, K1, Z8; \
	VPADDQ Z26, Z9, Z9; \
	VCMPPD $30, Z7, Z3, K1; \
	VMOVAPD Z3, K1, Z7; \
	VMOVDQA64 Z9, K1, Z8

// func maxPool2x2AVX(out *float64, argmax *int, x *float64, base, w, oh, ow uintptr)
// Pools the oh×ow outputs of one plane starting at x with row stride w;
// argmax entries are base + the selected element's offset from x.
TEXT ·maxPool2x2AVX(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ argmax+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ base+24(FP), R9
	MOVQ w+32(FP), R10
	MOVQ oh+40(FP), R11
	MOVQ ow+48(FP), R12

	VMOVDQU64 poolEven<>(SB), Z28
	MOVQ $1, AX
	VPBROADCASTQ AX, Z26
	VPADDQ Z26, Z28, Z29           // odd columns
	MOVQ $0xFFF0000000000000, AX
	VPBROADCASTQ AX, Z30           // −Inf
	VPBROADCASTQ R10, Z25
	MOVQ $16, AX
	VPBROADCASTQ AX, Z24           // input columns per full step

	MOVQ R12, BX
	SHRQ $3, BX                    // full steps per row
	MOVQ R12, DX
	ANDQ $7, DX                    // tail outputs per row
	// Tail masks: K7 = the low DX lanes of an output vector; the 2·DX input
	// columns split into K5 (first load) and K6 (second load).
	MOVQ $1, AX
	MOVQ DX, CX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K7
	MOVQ $1, AX
	ADDQ CX, CX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K5                   // mask ops use the low eight bits
	SHRQ $8, AX
	KMOVW AX, K6
	LEAQ (R10*8), R12              // row stride in bytes

poolrow:
	MOVQ SI, R13                   // top row
	LEAQ (SI)(R12*1), R14          // bottom row
	VPBROADCASTQ R9, Z20
	VPADDQ Z28, Z20, Z20
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   pooltail

poolstep:
	VMOVUPD (R13), Z1
	VMOVUPD 64(R13), Z2
	VMOVUPD (R14), Z3
	VMOVUPD 64(R14), Z4
	POOLSELECT
	VMOVUPD Z7, (DI)
	VMOVDQU64 Z8, (R8)
	VPADDQ Z24, Z20, Z20
	ADDQ $128, R13
	ADDQ $128, R14
	ADDQ $64, DI
	ADDQ $64, R8
	DECQ CX
	JNZ  poolstep

pooltail:
	TESTQ DX, DX
	JZ    poolnext
	VMOVUPD.Z (R13), K5, Z1
	VMOVUPD.Z 64(R13), K6, Z2
	VMOVUPD.Z (R14), K5, Z3
	VMOVUPD.Z 64(R14), K6, Z4
	POOLSELECT
	VMOVUPD Z7, K7, (DI)
	VMOVDQU64 Z8, K7, (R8)
	LEAQ (DI)(DX*8), DI
	LEAQ (R8)(DX*8), R8

poolnext:
	LEAQ (SI)(R12*2), SI
	LEAQ (R9)(R10*2), R9
	DECQ R11
	JNZ  poolrow

	VZEROUPPER
	RET
