// AVX-512 GEMM micro-kernels. NN and TransA products run on 8×16, 4×8 and
// 1×16 tiles (gemmTile8, gemmTile4, gemmTile1), the step on their twins
// (gemmStep8, gemmStep4, gemmStep1) and TransB on a two-row and a one-row
// dot-product kernel (dotTB8, dotTB4). An element's sum is seeded from dst
// (NN/TransA) or from zero (the step, applied with one FMA against alpha)
// and takes one FMA per p in ascending order, or (TransB) is summed in
// eight lanes and reduced by a fixed tree. Every kernel gives an element
// the same operations with the same operands in the same places, so its
// bits, NaN payloads included, do not depend on the row-panel split or on
// the tile its row lands in. FMA contracts the multiply-add, so results
// differ from the pure-Go kernels in the last bits; the equivalence tests
// bound both against the naive reference at 1e-12.

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
// instruction-level parallelism; per-lane accumulation order and FMA
// operand places are gemmTile4's (b second, a third: when both are NaN the
// second's payload wins), so a row computes the same bits in either kernel.
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
	VFMADD231PD Z6, Z4, Z0
	VFMADD231PD Z6, Z5, Z1
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
	VFMADD231PD Z6, Z4, Z0
	VFMADD231PD Z6, Z5, Z1
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

// MASKS16 sets K1 to the lanes of columns jb..jb+7 and K2 to those of
// jb+8..jb+15 that lie below n, for jb = R12 < n = R13: the low and high
// bytes of the mask of min(n−jb, 16) columns. Clobbers AX, CX, DX.
#define MASKS16 \
	MOVQ    R13, AX; \
	SUBQ    R12, AX; \
	MOVQ    $16, CX; \
	CMPQ    AX, CX; \
	CMOVQHI CX, AX; \
	MOVQ    $1, DX; \
	MOVQ    AX, CX; \
	SHLQ    CX, DX; \
	DECQ    DX; \
	KMOVW   DX, K1; \
	KSHIFTRW $8, K1, K2

// ROWS8(base, ld) points R8, R9 and R10 at rows 0, 3 and 6 of eight rows
// ld bytes apart starting at base, the three bases TILE8 reaches them from.
#define ROWS8(base, ld) \
	MOVQ base, R8; \
	LEAQ (R8)(ld*2), R9; \
	ADDQ ld, R9; \
	LEAQ (R9)(ld*2), R10; \
	ADDQ ld, R10

// TILE8(F, ld) applies F(m, lo, hi) to the eight rows of a tile: m is row
// r's address, ld bytes a row from ROWS8's bases, and lo and hi are its two
// accumulators, Z(2r) and Z(2r+1).
#define TILE8(F, ld) \
	F((R8), Z0, Z1); \
	F((R8)(ld*1), Z2, Z3); \
	F((R8)(ld*2), Z4, Z5); \
	F((R9), Z6, Z7); \
	F((R9)(ld*1), Z8, Z9); \
	F((R9)(ld*2), Z10, Z11); \
	F((R10), Z12, Z13); \
	F((R10)(ld*1), Z14, Z15)

// LOADROW(m, lo, hi) loads the sixteen columns at m into lo and hi under
// K1 and K2, zeroing the lanes past n; STOREROW stores them back, and
// ZEROROW clears them.
#define LOADROW(m, lo, hi) \
	VMOVUPD.Z m, K1, lo; \
	VMOVUPD.Z 64 m, K2, hi

#define STOREROW(m, lo, hi) \
	VMOVUPD lo, K1, m; \
	VMOVUPD hi, K2, 64 m

#define ZEROROW(m, lo, hi) \
	VPXORQ lo, lo, lo; \
	VPXORQ hi, hi, hi

// STEP16(m, lo, hi) broadcasts a's element at m into Z18 and folds it into
// its row's accumulators, one FMA each against the b halves in Z16 and Z17,
// with gemmTile4's operands in gemmTile4's places.
#define STEP16(m, lo, hi) \
	VBROADCASTSD m, Z18; \
	VFMADD231PD Z18, Z16, lo; \
	VFMADD231PD Z18, Z17, hi

// KLOOP8(loop) is the body of an 8×16 tile's k-loop, which jumps back to
// loop until CX runs out: b's row p (at BX, rows SI bytes apart) against
// a's column p, whose eight rows sit at R8, R9 and R10 with row stride DX
// and advance R11 bytes a step.
#define KLOOP8(loop) \
	VMOVUPD.Z (BX), K1, Z16; \
	VMOVUPD.Z 64(BX), K2, Z17; \
	TILE8(STEP16, DX); \
	ADDQ R11, R8; \
	ADDQ R11, R9; \
	ADDQ R11, R10; \
	ADDQ SI, BX; \
	DECQ CX; \
	JNZ  loop

// func gemmTile8(a *float64, aRowB, aPB uintptr, b *float64, dst *float64, lddB uintptr, k, n uintptr)
//
// gemmTile4 for eight rows and sixteen columns a block: the sixteen
// accumulators are two masked zmm halves of eight rows, so every b load
// feeds eight FMAs and sixteen chains hide the FMA latency on both ports.
// Each element is seeded from dst and takes its FMAs in ascending p with
// gemmTile4's operands, so it gets the bits either older kernel gives it.
TEXT ·gemmTile8(SB), NOSPLIT, $0-64
	MOVQ n+56(FP), R13
	MOVQ R13, SI
	SHLQ $3, SI            // SI = n*8 = b row stride in bytes
	XORQ R12, R12          // jb = current column block start

blockloop8:
	MASKS16
	MOVQ lddB+40(FP), AX
	MOVQ dst+32(FP), DI
	LEAQ (DI)(R12*8), DI
	ROWS8(DI, AX)
	TILE8(LOADROW, AX)
	MOVQ  aRowB+8(FP), DX
	MOVQ  a+0(FP), BX
	ROWS8(BX, DX)
	MOVQ  aPB+16(FP), R11
	MOVQ  b+24(FP), BX
	LEAQ  (BX)(R12*8), BX
	MOVQ  k+48(FP), CX
	TESTQ CX, CX
	JZ    store8

inner8:
	KLOOP8(inner8)

store8:
	ROWS8(DI, AX)
	TILE8(STOREROW, AX)
	ADDQ $16, R12
	CMPQ R12, R13
	JB   blockloop8
	VZEROUPPER
	RET

// func gemmStep8(a *float64, aPB uintptr, b *float64, w *float64, ldwB uintptr, k, n uintptr, alpha float64)
//
// gemmStep4 on gemmTile8's tile: eight rows of w (adjacent columns of a,
// TransA) by sixteen columns, summed from zero in gemmTile8's order and
// applied with gemmStep4's FMA against the broadcast alpha. As there, all
// sixteen w halves are loaded before any is stored; with 17 registers
// needed and 16 free, the last load waits for the first step to free Z0.
TEXT ·gemmStep8(SB), NOSPLIT, $0-64
	MOVQ n+48(FP), R13
	MOVQ R13, SI
	SHLQ $3, SI                   // SI = n*8 = b row stride in bytes
	XORQ R12, R12                 // jb = current column block start

sblockloop8:
	MASKS16
	TILE8(ZEROROW, DX)
	MOVQ  $8, DX                  // the eight rows read adjacent columns of a
	MOVQ  a+0(FP), BX
	ROWS8(BX, DX)
	MOVQ  aPB+8(FP), R11
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(R12*8), BX
	MOVQ  k+40(FP), CX
	TESTQ CX, CX
	JZ    sstep8

sinner8:
	KLOOP8(sinner8)

sstep8:
	VBROADCASTSD alpha+56(FP), Z16
	MOVQ ldwB+32(FP), AX
	MOVQ w+24(FP), DI
	LEAQ (DI)(R12*8), DI
	ROWS8(DI, AX)
	LOADROW((R8), Z17, Z18)
	LOADROW((R8)(AX*1), Z19, Z20)
	LOADROW((R8)(AX*2), Z21, Z22)
	LOADROW((R9), Z23, Z24)
	LOADROW((R9)(AX*1), Z25, Z26)
	LOADROW((R9)(AX*2), Z27, Z28)
	LOADROW((R10), Z29, Z30)
	VMOVUPD.Z (R10)(AX*1), K1, Z31
	VFMADD231PD Z0, Z16, Z17
	VMOVUPD.Z 64(R10)(AX*1), K2, Z0
	VFMADD231PD Z1, Z16, Z18
	VFMADD231PD Z2, Z16, Z19
	VFMADD231PD Z3, Z16, Z20
	VFMADD231PD Z4, Z16, Z21
	VFMADD231PD Z5, Z16, Z22
	VFMADD231PD Z6, Z16, Z23
	VFMADD231PD Z7, Z16, Z24
	VFMADD231PD Z8, Z16, Z25
	VFMADD231PD Z9, Z16, Z26
	VFMADD231PD Z10, Z16, Z27
	VFMADD231PD Z11, Z16, Z28
	VFMADD231PD Z12, Z16, Z29
	VFMADD231PD Z13, Z16, Z30
	VFMADD231PD Z14, Z16, Z31
	VFMADD231PD Z15, Z16, Z0
	STOREROW((R8), Z17, Z18)
	STOREROW((R8)(AX*1), Z19, Z20)
	STOREROW((R8)(AX*2), Z21, Z22)
	STOREROW((R9), Z23, Z24)
	STOREROW((R9)(AX*1), Z25, Z26)
	STOREROW((R9)(AX*2), Z27, Z28)
	STOREROW((R10), Z29, Z30)
	STOREROW((R10)(AX*1), Z31, Z0)
	ADDQ $16, R12
	CMPQ R12, R13
	JB   sblockloop8
	VZEROUPPER
	RET

// REDUCE8(z, y, x) sums the eight lanes of z into the low lane of x exactly
// as dotTB4 does: halves, then quarters, then the last pair. Clobbers Z14.
#define REDUCE8(z, y, x) \
	VEXTRACTF64X4 $1, z, Y14; \
	VADDPD Y14, y, y; \
	VEXTRACTF128 $1, y, X14; \
	VADDPD X14, x, x; \
	VPERMILPD $1, x, X14; \
	VADDSD X14, x, x

// ADDSTORE(x, m) sets m = m + x, with m the first operand: the operand
// order of the Go loop `orow[j] += out[c]` this replaces, which decides
// which payload survives when both are NaN. Clobbers X15.
#define ADDSTORE(x, m) \
	VMOVSD m, X15; \
	VADDSD x, X15, X15; \
	VMOVSD X15, m

// TBFMA(z) folds the b row held in z into the accumulators of both a rows,
// with dotTB4's operands: a row 0 (Z8) into Zr, a row 1 (Z9) into Zr+4.
#define TBFMA(z, r0, r1) \
	VFMADD231PD z, Z8, r0; \
	VFMADD231PD z, Z9, r1

// func dotTB8(a, b, dst *float64, k, n uintptr, accum bool)
//
// Two rows of dst = a·bᵀ at once: dst[i][j] = ⟨a_i, b_j⟩ (+= when accum)
// for i < 2 and j < n, with a_i = a + i·k, b_j = b + j·k and dst rows n
// apart. Columns go four at a time, clamped to the last row of b as in
// dotTB4; the eight accumulators share each a load with four b rows and
// each b load with two a rows. Every output takes dotTB4's lanes, masked
// k-tail and reduction, operand for operand.
TEXT ·dotTB8(SB), NOSPLIT, $0-41
	MOVQ k+24(FP), SI
	SHLQ $3, SI               // SI = k*8, the row stride of a and b
	MOVQ n+32(FP), R13
	XORQ R12, R12             // j
	MOVQ k+24(FP), DX
	ANDQ $7, DX               // k-tail length
	MOVQ $1, AX
	MOVQ DX, CX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	MOVQ a+0(FP), BX
	LEAQ (BX)(SI*1), DX       // a row 1
	MOVQ b+8(FP), R8

colloop8:
	MOVQ R13, AX
	SUBQ R12, AX              // columns left
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ AX, $2
	JB   cols8
	LEAQ (R8)(SI*1), R9
	MOVQ R9, R10
	MOVQ R9, R11
	CMPQ AX, $3
	JB   cols8
	LEAQ (R9)(SI*1), R10
	MOVQ R10, R11
	CMPQ AX, $4
	JB   cols8
	LEAQ (R10)(SI*1), R11

cols8:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ  DI, DI              // byte offset into the rows
	MOVQ  k+24(FP), CX
	SHRQ  $3, CX              // full 8-wide blocks
	TESTQ CX, CX
	JZ    tbtail8

tbfull8:
	VMOVUPD (BX)(DI*1), Z8
	VMOVUPD (DX)(DI*1), Z9
	VMOVUPD (R8)(DI*1), Z10
	TBFMA(Z10, Z0, Z4)
	VMOVUPD (R9)(DI*1), Z11
	TBFMA(Z11, Z1, Z5)
	VMOVUPD (R10)(DI*1), Z12
	TBFMA(Z12, Z2, Z6)
	VMOVUPD (R11)(DI*1), Z13
	TBFMA(Z13, Z3, Z7)
	ADDQ $64, DI
	DECQ CX
	JNZ  tbfull8

tbtail8:
	MOVQ k+24(FP), CX
	ANDQ $7, CX
	JZ   tbreduce8
	VMOVUPD.Z (BX)(DI*1), K1, Z8
	VMOVUPD.Z (DX)(DI*1), K1, Z9
	VMOVUPD.Z (R8)(DI*1), K1, Z10
	TBFMA(Z10, Z0, Z4)
	VMOVUPD.Z (R9)(DI*1), K1, Z11
	TBFMA(Z11, Z1, Z5)
	VMOVUPD.Z (R10)(DI*1), K1, Z12
	TBFMA(Z12, Z2, Z6)
	VMOVUPD.Z (R11)(DI*1), K1, Z13
	TBFMA(Z13, Z3, Z7)

tbreduce8:
	REDUCE8(Z0, Y0, X0)
	REDUCE8(Z1, Y1, X1)
	REDUCE8(Z2, Y2, X2)
	REDUCE8(Z3, Y3, X3)
	REDUCE8(Z4, Y4, X4)
	REDUCE8(Z5, Y5, X5)
	REDUCE8(Z6, Y6, X6)
	REDUCE8(Z7, Y7, X7)

	MOVQ dst+16(FP), DI
	LEAQ (DI)(R12*8), DI      // dst row 0, column j
	LEAQ (DI)(R13*8), AX      // dst row 1, column j
	MOVQ R13, CX
	SUBQ R12, CX              // columns left, as above
	MOVBQZX accum+40(FP), R11
	TESTQ R11, R11
	JNZ  tbadd8
	VMOVSD X0, (DI)
	VMOVSD X4, (AX)
	CMPQ CX, $2
	JB   tbnext8
	VMOVSD X1, 8(DI)
	VMOVSD X5, 8(AX)
	CMPQ CX, $3
	JB   tbnext8
	VMOVSD X2, 16(DI)
	VMOVSD X6, 16(AX)
	CMPQ CX, $4
	JB   tbnext8
	VMOVSD X3, 24(DI)
	VMOVSD X7, 24(AX)
	JMP  tbnext8

tbadd8:
	ADDSTORE(X0, (DI))
	ADDSTORE(X4, (AX))
	CMPQ CX, $2
	JB   tbnext8
	ADDSTORE(X1, 8(DI))
	ADDSTORE(X5, 8(AX))
	CMPQ CX, $3
	JB   tbnext8
	ADDSTORE(X2, 16(DI))
	ADDSTORE(X6, 16(AX))
	CMPQ CX, $4
	JB   tbnext8
	ADDSTORE(X3, 24(DI))
	ADDSTORE(X7, 24(AX))

tbnext8:
	LEAQ (R8)(SI*4), R8
	ADDQ $4, R12
	CMPQ R12, R13
	JB   colloop8
	VZEROUPPER
	RET
