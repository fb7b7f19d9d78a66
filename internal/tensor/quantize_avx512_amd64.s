// AVX-512 kernels for 8-bit range quantisation (see quantize.go for the
// semantics they must reproduce): the range sweep (min, max and a finiteness
// verdict over a float vector) and the quantiser. Eight coordinates per step;
// the tail goes through the same sequence under a lane mask (masked-off lanes
// are neither read nor written).
//
// The range sweep keeps eight running minima and maxima and sums x − x,
// which is +0 for a finite x and NaN for ±Inf or NaN; a NaN sum is the
// "not finite" verdict. Its tail lanes that lie past the vector keep a copy
// of v[0], which changes neither extreme nor the verdict. Which of two equal
// zeros an extreme holds is left to the Go caller.
//
// The quantiser computes (v − lo) / scale · 255 with the same three IEEE
// operations as the Go loop, truncates (VRNDSCALEPD, round toward zero),
// converts the truncation to an integer and adds one where the fraction is
// at least 0.5; VPMOVQB narrows the eight integers to the eight bytes stored.
//
// Instruction-set note: VCVTTPD2QQ is AVX-512DQ, everything else is
// AVX-512F (VMINPD/VMAXPD/VSUBPD/VDIVPD/VMULPD/VADDPD, VRNDSCALEPD, VCMPPD→k,
// masked VMOVUPD, VPADDQ, VPMOVQB, VBROADCASTSD, VPBROADCASTQ, VEXTRACTF64X4,
// KMOVW, KORTESTW) or older (VEXTRACTF128, VPERMILPD, VMINSD, VMAXSD,
// VMOVSD), so the F+DQ probe in detectAVX512 covers these kernels.

#include "textflag.h"

// TAILMASK sets K7 to the low DX bits (0 < DX < 8). Clobbers AX and CX.
#define TAILMASK \
	MOVQ $1, AX; \
	MOVQ DX, CX; \
	SHLQ CX, AX; \
	DECQ AX; \
	KMOVW AX, K7

// RANGESTEP folds the eight doubles in x into the minima Z1, the maxima Z2
// and the finiteness sum Z3. Clobbers Z6.
#define RANGESTEP(x) \
	VMINPD x, Z1, Z1; \
	VMAXPD x, Z2, Z2; \
	VSUBPD x, x, Z6; \
	VADDPD Z6, Z3, Z3

// func finiteRangeAVX(v *float64, n uintptr, lohi *[2]float64) bool
// lohi = (min, max) of v[0:n], n > 0; reports whether every v[i] is finite.
TEXT ·finiteRangeAVX(SB), NOSPLIT, $0-25
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ lohi+16(FP), DI
	VBROADCASTSD (SI), Z1
	VMOVAPD Z1, Z2
	VMOVAPD Z1, Z5             // tail filler: v[0] in every lane
	VPXORQ Z3, Z3, Z3
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   rangetail

rangeloop:
	VMOVUPD (SI), Z4
	RANGESTEP(Z4)
	ADDQ $64, SI
	DECQ CX
	JNZ  rangeloop

rangetail:
	TESTQ DX, DX
	JZ    rangereduce
	TAILMASK
	VMOVUPD (SI), K7, Z5       // merge-masked: lanes past the end keep v[0]
	RANGESTEP(Z5)

rangereduce:
	VEXTRACTF64X4 $1, Z1, Y6
	VMINPD Y6, Y1, Y1
	VEXTRACTF128 $1, Y1, X6
	VMINPD X6, X1, X1
	VPERMILPD $1, X1, X6
	VMINSD X6, X1, X1
	VMOVSD X1, (DI)
	VEXTRACTF64X4 $1, Z2, Y6
	VMAXPD Y6, Y2, Y2
	VEXTRACTF128 $1, Y2, X6
	VMAXPD X6, X2, X2
	VPERMILPD $1, X2, X6
	VMAXSD X6, X2, X2
	VMOVSD X2, 8(DI)
	VCMPPD $3, Z3, Z3, K1      // UNORD_Q: a lane's sum is NaN
	KORTESTW K1, K1
	SETEQ ret+24(FP)
	VZEROUPPER
	RET

// QUANT(x) turns the eight doubles in x into eight qwords in Z2, each the
// rounded (x − lo) / scale · 255. Z20 = lo, Z21 = scale, Z22 = 255, Z23 = 0.5
// and Z24 = 1 in every lane. Predicate 29 is GE_OQ; VRNDSCALEPD's immediate
// 11 is "round toward zero, no precision exception". Clobbers Z3, Z4 and K1.
#define QUANT(x) \
	VSUBPD Z20, x, x; \
	VDIVPD Z21, x, x; \
	VMULPD Z22, x, x; \
	VRNDSCALEPD $11, x, Z3; \
	VSUBPD Z3, x, Z4; \
	VCMPPD $29, Z23, Z4, K1; \
	VCVTTPD2QQ Z3, Z2; \
	VPADDQ Z24, Z2, K1, Z2

// func quantize8AVX(dst *byte, v *float64, n uintptr, lo, scale float64)
// dst[i] = math.Round((v[i] − lo) / scale · 255) for i in [0, n)
TEXT ·quantize8AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD lo+24(FP), Z20
	VBROADCASTSD scale+32(FP), Z21
	MOVQ $0x406FE00000000000, AX // 255.0
	VPBROADCASTQ AX, Z22
	MOVQ $0x3FE0000000000000, AX // 0.5
	VPBROADCASTQ AX, Z23
	MOVQ $1, AX
	VPBROADCASTQ AX, Z24
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   quanttail

quantloop:
	VMOVUPD (SI), Z1
	QUANT(Z1)
	VPMOVQB Z2, (DI)
	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  quantloop

quanttail:
	TESTQ DX, DX
	JZ    quantdone
	TAILMASK
	VMOVUPD.Z (SI), K7, Z1
	QUANT(Z1)
	VPMOVQB Z2, K7, (DI)

quantdone:
	VZEROUPPER
	RET
