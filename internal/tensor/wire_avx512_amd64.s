// AVX-512 block kernels for the wire codec's big-endian float64 words: the
// decode and the encode. Eight words a block, whole blocks only. Both are
// one VPSHUFB per block, which reverses the bytes of every qword; the decode
// then tests each lane's exponent and stops, returning in AX the words it
// stored, before a block in which some lane is ±Inf or NaN, so the caller's
// scalar code meets that word and names it.
//
// Instruction-set note: VPSHUFB on ZMM registers is AVX-512BW, which
// detectAVX512 probes alongside F and DQ. VBROADCASTI32X4, VMOVDQU64,
// VPANDQ, VPCMPEQQ→k, VPBROADCASTQ and KORTESTW are AVX-512F.

#include "textflag.h"

// bswapMask is the VPSHUFB control that reverses the bytes of both qwords of
// a 128-bit lane.
DATA bswapMask<>+0(SB)/8, $0x0001020304050607
DATA bswapMask<>+8(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// func decodeBEAVX(dst *float64, src *byte, blocks uintptr) uintptr
TEXT ·decodeBEAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	VBROADCASTI32X4 bswapMask<>(SB), Z30
	MOVQ $0x7FF0000000000000, DX
	VPBROADCASTQ DX, Z31
	XORQ AX, AX

decloop:
	VMOVDQU64 (SI)(AX*8), Z1
	VPSHUFB Z30, Z1, Z1
	VPANDQ Z31, Z1, Z2
	VPCMPEQQ Z31, Z2, K1              // exponent all ones: ±Inf or NaN
	KORTESTW K1, K1
	JNZ  decdone
	VMOVDQU64 Z1, (DI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JNZ  decloop

decdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func encodeBEAVX(dst *byte, src *float64, blocks uintptr)
TEXT ·encodeBEAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	VBROADCASTI32X4 bswapMask<>(SB), Z30

encloop:
	VMOVDQU64 (SI), Z1
	VPSHUFB Z30, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  encloop

	VZEROUPPER
	RET
