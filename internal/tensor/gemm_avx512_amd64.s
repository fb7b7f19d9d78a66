// AVX-512 GEMM micro-kernels. Every output element is accumulated with
// ascending-p FMA into a lane seeded from dst (NN/TransA) or reduced with a
// fixed tree (TransB), so results are independent of row-panel splits and of
// whether a row lands in the 4-row or the 1-row kernel. FMA contracts the
// multiply-add (no intermediate rounding), so results differ from the pure-Go
// kernels in the last bits; the equivalence tests bound both against the
// naive reference at 1e-12.

#include "textflag.h"

// func gemmTile4(a *float64, aRowB, aPB uintptr, b *float64, dst *float64, lddB uintptr, k, n uintptr)
//
// dst[r][j] += Σ_p a[r][p]·b[p][j] for r=0..3, j=0..n-1, where element
// a[r][p] lives at a + r·aRowB + p·aPB (byte strides — NN passes
// (aRowB=k·8, aPB=8), TransA passes (8, m·8)), b is k×n row-major and dst
// rows are lddB bytes apart. Column blocks of 8 with a masked tail.
TEXT ·gemmTile4(SB), NOSPLIT, $0-64
	MOVQ n+56(FP), R13
	MOVQ R13, SI
	SHLQ $3, SI            // SI = n*8 = b row stride in bytes
	XORQ R12, R12          // jb = current column block start

blockloop4:
	// K1 = lane mask for columns jb .. min(jb+8, n)-1
	MOVQ R13, AX
	SUBQ R12, AX
	CMPQ AX, $8
	JBE  rem4ok
	MOVQ $8, AX

rem4ok:
	MOVQ $1, DX
	MOVQ AX, CX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K1

	// a row pointers for this block
	MOVQ a+0(FP), R8
	MOVQ aRowB+8(FP), AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	// b column-block pointer
	MOVQ b+24(FP), BX
	LEAQ (BX)(R12*8), BX

	// seed accumulators from dst so per-element order is seed, p=0, p=1, ...
	MOVQ dst+32(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ lddB+40(FP), DX
	VMOVUPD.Z (DI), K1, Z0
	ADDQ DX, DI
	VMOVUPD.Z (DI), K1, Z1
	ADDQ DX, DI
	VMOVUPD.Z (DI), K1, Z2
	ADDQ DX, DI
	VMOVUPD.Z (DI), K1, Z3

	MOVQ  aPB+16(FP), DX
	MOVQ  k+48(FP), CX
	TESTQ CX, CX
	JZ    store4

inner4:
	VMOVUPD.Z (BX), K1, Z4
	VFMADD231PD.BCST (R8), Z4, Z0
	VFMADD231PD.BCST (R9), Z4, Z1
	VFMADD231PD.BCST (R10), Z4, Z2
	VFMADD231PD.BCST (R11), Z4, Z3
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ SI, BX
	DECQ CX
	JNZ  inner4

store4:
	MOVQ dst+32(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ lddB+40(FP), DX
	VMOVUPD Z0, K1, (DI)
	ADDQ DX, DI
	VMOVUPD Z1, K1, (DI)
	ADDQ DX, DI
	VMOVUPD Z2, K1, (DI)
	ADDQ DX, DI
	VMOVUPD Z3, K1, (DI)

	ADDQ $8, R12
	CMPQ R12, R13
	JB   blockloop4
	VZEROUPPER
	RET

// func gemmTile1(a *float64, aPB uintptr, b *float64, dst *float64, k, n uintptr)
//
// Single-row variant of gemmTile4 for row remainders (and tiny-m products):
// dst[j] += Σ_p a[p·aPB]·b[p][j]. Column blocks of 16 (two masked zmm) for
// instruction-level parallelism; per-lane accumulation order is identical to
// gemmTile4's, so a row computes the same bits in either kernel.
TEXT ·gemmTile1(SB), NOSPLIT, $0-48
	MOVQ n+40(FP), R13
	MOVQ R13, SI
	SHLQ $3, SI
	XORQ R12, R12

blockloop1:
	// K1 masks columns jb..jb+7, K2 masks jb+8..jb+15
	MOVQ R13, AX
	SUBQ R12, AX
	CMPQ AX, $8
	JBE  lomask1
	MOVQ $8, AX

lomask1:
	MOVQ $1, DX
	MOVQ AX, CX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K1
	MOVQ R13, AX
	SUBQ R12, AX
	SUBQ $8, AX
	JLE  himask0
	CMPQ AX, $8
	JBE  himask1
	MOVQ $8, AX

himask1:
	MOVQ $1, DX
	MOVQ AX, CX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K2
	JMP  maskdone1

himask0:
	XORQ DX, DX
	KMOVW DX, K2

maskdone1:
	MOVQ a+0(FP), R8
	MOVQ b+16(FP), BX
	LEAQ (BX)(R12*8), BX
	MOVQ dst+24(FP), DI
	LEAQ (DI)(R12*8), DI
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	MOVQ  aPB+8(FP), DX
	MOVQ  k+32(FP), CX
	TESTQ CX, CX
	JZ    store1

inner1:
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z 64(BX), K2, Z5
	VBROADCASTSD (R8), Z6
	VFMADD231PD Z4, Z6, Z0
	VFMADD231PD Z5, Z6, Z1
	ADDQ DX, R8
	ADDQ SI, BX
	DECQ CX
	JNZ  inner1

store1:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	ADDQ $16, R12
	CMPQ R12, R13
	JB   blockloop1
	VZEROUPPER
	RET

// func gemmStep4(a *float64, aPB uintptr, b *float64, w *float64, ldwB uintptr, k, n uintptr, alpha float64)
//
// w[r][j] += alpha·Σ_p a[p][r]·b[p][j] for r=0..3, j=0..n-1, with a[p][r]
// at a + r·8 + p·aPB (gemmTile4's TransA layout), b k×n row-major and w
// rows ldwB bytes apart. The four accumulators start from zero instead of
// from the destination, sum in gemmTile4's order, and are applied to w the
// way axpyAVX applies a stored gradient: one VFMADD231PD against the
// broadcast alpha, operands in the same places. So every weight gets the
// bits of a cleared gradient, gemmTile4 into it and axpyAVX, with no
// gradient stored or read.
//
// The epilogue loads all four w rows before it stores any. A version that
// loaded, stepped and stored one row at a time stalls at narrow widths:
// with rows shorter than 8 lanes, each masked load overlaps the previous
// row's masked store and waits on it. On the 8×16×4 step of the 68-dim
// logistic model that version takes 234–245 ns a call, this one 119–150.
TEXT ·gemmStep4(SB), NOSPLIT, $0-64
	MOVQ n+48(FP), R13
	MOVQ R13, SI
	SHLQ $3, SI                   // SI = n*8 = b row stride in bytes
	XORQ R12, R12                 // jb = current column block start
	VBROADCASTSD alpha+56(FP), Z9

sblockloop4:
	// K1 = lane mask for columns jb .. min(jb+8, n)-1
	MOVQ R13, AX
	SUBQ R12, AX
	CMPQ AX, $8
	JBE  srem4ok
	MOVQ $8, AX

srem4ok:
	MOVQ $1, DX
	MOVQ AX, CX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K1

	// a column pointers: the four rows of w read adjacent columns of a
	MOVQ a+0(FP), R8
	LEAQ 8(R8), R9
	LEAQ 16(R8), R10
	LEAQ 24(R8), R11

	// b column-block pointer
	MOVQ b+16(FP), BX
	LEAQ (BX)(R12*8), BX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	MOVQ  aPB+8(FP), DX
	MOVQ  k+40(FP), CX
	TESTQ CX, CX
	JZ    sstep4

sinner4:
	VMOVUPD.Z (BX), K1, Z4
	VFMADD231PD.BCST (R8), Z4, Z0
	VFMADD231PD.BCST (R9), Z4, Z1
	VFMADD231PD.BCST (R10), Z4, Z2
	VFMADD231PD.BCST (R11), Z4, Z3
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ SI, BX
	DECQ CX
	JNZ  sinner4

sstep4:
	// w rows: all four loads first, then the steps, then the stores
	MOVQ w+24(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ ldwB+32(FP), DX
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	VMOVUPD.Z (DI), K1, Z5
	VMOVUPD.Z (R8), K1, Z6
	VMOVUPD.Z (R9), K1, Z7
	VMOVUPD.Z (R10), K1, Z8
	VFMADD231PD Z0, Z9, Z5
	VFMADD231PD Z1, Z9, Z6
	VFMADD231PD Z2, Z9, Z7
	VFMADD231PD Z3, Z9, Z8
	VMOVUPD Z5, K1, (DI)
	VMOVUPD Z6, K1, (R8)
	VMOVUPD Z7, K1, (R9)
	VMOVUPD Z8, K1, (R10)

	ADDQ $8, R12
	CMPQ R12, R13
	JB   sblockloop4
	VZEROUPPER
	RET

// func gemmStep1(a *float64, aPB uintptr, b *float64, w *float64, k, n uintptr, alpha float64)
//
// Single-row twin of gemmStep4 for row remainders: w[j] += alpha·Σ_p
// a[p·aPB]·b[p][j], summed as gemmTile1 sums (16 columns a block, two masked
// zmm) from zero and applied with gemmStep4's epilogue.
TEXT ·gemmStep1(SB), NOSPLIT, $0-56
	MOVQ n+40(FP), R13
	MOVQ R13, SI
	SHLQ $3, SI
	XORQ R12, R12
	VBROADCASTSD alpha+48(FP), Z9

sblockloop1:
	// K1 masks columns jb..jb+7, K2 masks jb+8..jb+15
	MOVQ R13, AX
	SUBQ R12, AX
	CMPQ AX, $8
	JBE  slomask1
	MOVQ $8, AX

slomask1:
	MOVQ $1, DX
	MOVQ AX, CX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K1
	MOVQ R13, AX
	SUBQ R12, AX
	SUBQ $8, AX
	JLE  shimask0
	CMPQ AX, $8
	JBE  shimask1
	MOVQ $8, AX

shimask1:
	MOVQ $1, DX
	MOVQ AX, CX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K2
	JMP  smaskdone1

shimask0:
	XORQ DX, DX
	KMOVW DX, K2

smaskdone1:
	MOVQ a+0(FP), R8
	MOVQ b+16(FP), BX
	LEAQ (BX)(R12*8), BX
	MOVQ w+24(FP), DI
	LEAQ (DI)(R12*8), DI
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ  aPB+8(FP), DX
	MOVQ  k+32(FP), CX
	TESTQ CX, CX
	JZ    sstep1

sinner1:
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z 64(BX), K2, Z5
	VBROADCASTSD (R8), Z6
	VFMADD231PD Z4, Z6, Z0
	VFMADD231PD Z5, Z6, Z1
	ADDQ DX, R8
	ADDQ SI, BX
	DECQ CX
	JNZ  sinner1

sstep1:
	VMOVUPD.Z (DI), K1, Z5
	VMOVUPD.Z 64(DI), K2, Z6
	VFMADD231PD Z0, Z9, Z5
	VFMADD231PD Z1, Z9, Z6
	VMOVUPD Z5, K1, (DI)
	VMOVUPD Z6, K2, 64(DI)
	ADDQ $16, R12
	CMPQ R12, R13
	JB   sblockloop1
	VZEROUPPER
	RET

// func dotTB4(x, y *float64, ldyB uintptr, rows, k uintptr, out *[4]float64)
//
// out[r] = ⟨x, y_r⟩ for up to four rows y_r = y + r·ldyB of length k.
// Rows beyond `rows` are clamped to the last valid row (their out entries
// are duplicates the caller ignores). Eight-lane FMA accumulators with a
// masked k-tail, reduced zmm→ymm→xmm→scalar in a fixed order.
TEXT ·dotTB4(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), BX
	MOVQ y+8(FP), R8
	MOVQ ldyB+16(FP), AX
	MOVQ rows+24(FP), DX
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ DX, $2
	JB   rowsdone
	LEAQ (R8)(AX*1), R9
	MOVQ R9, R10
	MOVQ R9, R11
	CMPQ DX, $3
	JB   rowsdone
	LEAQ (R9)(AX*1), R10
	MOVQ R10, R11
	CMPQ DX, $4
	JB   rowsdone
	LEAQ (R10)(AX*1), R11

rowsdone:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ  k+32(FP), CX
	MOVQ  CX, DX
	SHRQ  $3, CX           // full 8-wide blocks
	ANDQ  $7, DX           // tail length
	TESTQ CX, CX
	JZ    tail

full:
	VMOVUPD (BX), Z4
	VFMADD231PD (R8), Z4, Z0
	VFMADD231PD (R9), Z4, Z1
	VFMADD231PD (R10), Z4, Z2
	VFMADD231PD (R11), Z4, Z3
	ADDQ $64, BX
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ CX
	JNZ  full

tail:
	TESTQ DX, DX
	JZ    reduce
	MOVQ  $1, AX
	MOVQ  DX, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	VMOVUPD.Z (BX), K1, Z4
	VMOVUPD.Z (R8), K1, Z5
	VFMADD231PD Z5, Z4, Z0
	VMOVUPD.Z (R9), K1, Z5
	VFMADD231PD Z5, Z4, Z1
	VMOVUPD.Z (R10), K1, Z5
	VFMADD231PD Z5, Z4, Z2
	VMOVUPD.Z (R11), K1, Z5
	VFMADD231PD Z5, Z4, Z3

reduce:
	MOVQ out+40(FP), DI
	VEXTRACTF64X4 $1, Z0, Y5
	VADDPD Y5, Y0, Y0
	VEXTRACTF128 $1, Y0, X5
	VADDPD X5, X0, X0
	VPERMILPD $1, X0, X5
	VADDSD X5, X0, X0
	VMOVSD X0, (DI)
	VEXTRACTF64X4 $1, Z1, Y5
	VADDPD Y5, Y1, Y1
	VEXTRACTF128 $1, Y1, X5
	VADDPD X5, X1, X1
	VPERMILPD $1, X1, X5
	VADDSD X5, X1, X1
	VMOVSD X1, 8(DI)
	VEXTRACTF64X4 $1, Z2, Y5
	VADDPD Y5, Y2, Y2
	VEXTRACTF128 $1, Y2, X5
	VADDPD X5, X2, X2
	VPERMILPD $1, X2, X5
	VADDSD X5, X2, X2
	VMOVSD X2, 16(DI)
	VEXTRACTF64X4 $1, Z3, Y5
	VADDPD Y5, Y3, Y3
	VEXTRACTF128 $1, Y3, X5
	VADDPD X5, X3, X3
	VPERMILPD $1, X3, X5
	VADDSD X5, X3, X3
	VMOVSD X3, 24(DI)
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
