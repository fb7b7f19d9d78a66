// AVX-512 elementwise kernels for the training hot paths: SGD axpy updates
// and ReLU forward/backward. Tail elements are handled with masked ops so the
// whole slice goes through the same instruction sequence.

#include "textflag.h"

// func axpyAVX(alpha float64, x, y *float64, n uintptr)
// y[i] += alpha * x[i] for i in [0, n)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Z0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   axpytail

axpyloop:
	VMOVUPD (DI), Z1
	VFMADD231PD (SI), Z0, Z1
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  axpyloop

axpytail:
	TESTQ DX, DX
	JZ    axpydone
	MOVQ  $1, AX
	MOVQ  DX, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	VMOVUPD.Z (DI), K1, Z1
	VMOVUPD.Z (SI), K1, Z2
	VFMADD231PD Z2, Z0, Z1
	VMOVUPD Z1, K1, (DI)

axpydone:
	VZEROUPPER
	RET

// func reluFwdAVX(dst, x *float64, n uintptr)
// dst[i] = max(x[i], 0)
TEXT ·reluFwdAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VPXORQ Z0, Z0, Z0
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   rfwdtail

rfwdloop:
	VMOVUPD (SI), Z1
	VMAXPD Z0, Z1, Z1
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  rfwdloop

rfwdtail:
	TESTQ DX, DX
	JZ    rfwddone
	MOVQ  $1, AX
	MOVQ  DX, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	VMOVUPD.Z (SI), K1, Z1
	VMAXPD Z0, Z1, Z1
	VMOVUPD Z1, K1, (DI)

rfwddone:
	VZEROUPPER
	RET

// func reluBwdAVX(dst, grad, x *float64, n uintptr)
// dst[i] = grad[i] if x[i] > 0 else 0
TEXT ·reluBwdAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	VPXORQ Z0, Z0, Z0
	MOVQ CX, DX
	SHRQ $3, CX
	ANDQ $7, DX
	TESTQ CX, CX
	JZ   rbwdtail

rbwdloop:
	VMOVUPD (SI), Z1
	VCMPPD $14, Z0, Z1, K1     // K1[i] = x[i] > 0 (GT_OS)
	VMOVUPD.Z (BX), K1, Z2
	VMOVUPD Z2, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ CX
	JNZ  rbwdloop

rbwdtail:
	TESTQ DX, DX
	JZ    rbwddone
	MOVQ  $1, AX
	MOVQ  DX, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2
	VMOVUPD.Z (SI), K2, Z1     // masked-out lanes read as 0 -> compare false
	VCMPPD $14, Z0, Z1, K1
	VMOVUPD.Z (BX), K1, Z2
	VMOVUPD Z2, K2, (DI)

rbwddone:
	VZEROUPPER
	RET

// func addRowsAVX(dst *float64, lddB uintptr, src *float64, rows, n uintptr)
// dst[r·lddB/8 + i] = src[r·n + i] + dst[r·lddB/8 + i] for r < rows, i < n:
// rows of n from src, stored one after another, into rows of dst lddB bytes
// apart; rows, n > 0. src is the first operand, as in col2im's loop.
TEXT ·addRowsAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ lddB+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ rows+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ R9, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1               // the tail's lanes
	MOVQ R9, R10
	SHRQ $3, R10               // full 8-wide blocks a row

addrowloop:
	XORQ  AX, AX               // byte offset into the row
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    addrowtail

addrowblk:
	VMOVUPD (SI)(AX*1), Z0
	VADDPD  (DI)(AX*1), Z0, Z0
	VMOVUPD Z0, (DI)(AX*1)
	ADDQ $64, AX
	DECQ CX
	JNZ  addrowblk

addrowtail:
	MOVQ R9, CX
	ANDQ $7, CX
	JZ   addrownext
	VMOVUPD.Z (SI)(AX*1), K1, Z0
	VMOVUPD.Z (DI)(AX*1), K1, Z1
	VADDPD  Z1, Z0, Z0
	VMOVUPD Z0, K1, (DI)(AX*1)

addrownext:
	LEAQ (SI)(R9*8), SI
	ADDQ DX, DI
	DECQ R8
	JNZ  addrowloop
	VZEROUPPER
	RET

// func addBiasAVX(dst, bias *float64, rows, n uintptr)
// dst[r·n + i] = dst[r·n + i] + bias[r] for r < rows, i < n; rows, n > 0.
// dst is the first operand, as in Conv2D.Forward's loop.
TEXT ·addBiasAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ R9, CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1               // the tail's lanes
	MOVQ R9, R10
	SHRQ $3, R10               // full 8-wide blocks a row

biasrowloop:
	VBROADCASTSD (SI), Z1
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    biastail

biasblk:
	VMOVUPD (DI), Z0
	VADDPD  Z1, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	DECQ CX
	JNZ  biasblk

biastail:
	MOVQ R9, CX
	ANDQ $7, CX
	JZ   biasnext
	VMOVUPD.Z (DI), K1, Z0
	VADDPD  Z1, Z0, Z0
	VMOVUPD Z0, K1, (DI)
	LEAQ (DI)(CX*8), DI

biasnext:
	ADDQ $8, SI
	DECQ R8
	JNZ  biasrowloop
	VZEROUPPER
	RET
