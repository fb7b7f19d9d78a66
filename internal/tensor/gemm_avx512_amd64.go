package tensor

import "os"

// AVX-512 dispatch for the GEMM kernels (see gemm_avx512_amd64.s). The
// assembly path is used when the CPU and OS support AVX-512F/DQ/BW and FMA;
// the pure-Go kernels in gemm.go remain the reference and the fallback. Set CMFL_NOSIMD=1
// to force the Go path (debugging, cross-checking).

func init() {
	simdGEMM = detectAVX512() && os.Getenv("CMFL_NOSIMD") != "1"
}

//go:noescape
func gemmTile4(a *float64, aRowB, aPB uintptr, b *float64, dst *float64, lddB uintptr, k, n uintptr)

//go:noescape
func gemmTile8(a *float64, aRowB, aPB uintptr, b *float64, dst *float64, lddB uintptr, k, n uintptr)

//go:noescape
func gemmTile1(a *float64, aPB uintptr, b *float64, dst *float64, k, n uintptr)

//go:noescape
func gemmStep4(a *float64, aPB uintptr, b *float64, w *float64, ldwB uintptr, k, n uintptr, alpha float64)

//go:noescape
func gemmStep8(a *float64, aPB uintptr, b *float64, w *float64, ldwB uintptr, k, n uintptr, alpha float64)

//go:noescape
func gemmStep1(a *float64, aPB uintptr, b *float64, w *float64, k, n uintptr, alpha float64)

//go:noescape
func dotTB4(x, y *float64, ldyB uintptr, rows, k uintptr, out *[4]float64)

//go:noescape
func dotTB8(a, b, dst *float64, k, n uintptr, accum bool)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

func detectAVX512() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const fma = 1 << 12    // math.archExp's FMA branch, which expAVX copies
	const popcnt = 1 << 23 // indicesAtLeastAVX counts its mask with POPCNT
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&fma == 0 || ecx1&popcnt == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 must enable XMM, YMM, opmask and both ZMM state components.
	xeax, _ := xgetbvAsm()
	if xeax&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx512f = 1 << 16
	const avx512dq = 1 << 17
	const avx512bw = 1 << 30 // VPSHUFB on ZMM, in the wire kernels
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0 && ebx7&avx512bw != 0
}

// tile8 reports whether products n columns wide take the 8×16 tiles. Up to
// eight columns the 4×8 tile wastes no lane of its one block, and the
// 8×16 tile's half-empty high block made those products slower.
func tile8(n int) bool { return n > 8 }

// gemmNNSIMD and gemmTASIMD run rows [lo,hi) in tiles of eight rows where
// tile8 allows, then four, then one; a row gets the same bits in each.
func gemmNNSIMD(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	if !accum {
		zeroRange(dst, lo*n, hi*n)
	}
	if k == 0 || n == 0 || lo >= hi {
		return
	}
	kB, nB := uintptr(k)*8, uintptr(n)*8
	i := lo
	for ; tile8(n) && i+8 <= hi; i += 8 {
		gemmTile8(&a[i*k], kB, 8, &b[0], &dst[i*n], nB, uintptr(k), uintptr(n))
	}
	for ; i+4 <= hi; i += 4 {
		gemmTile4(&a[i*k], kB, 8, &b[0], &dst[i*n], nB, uintptr(k), uintptr(n))
	}
	for ; i < hi; i++ {
		gemmTile1(&a[i*k], 8, &b[0], &dst[i*n], uintptr(k), uintptr(n))
	}
}

func gemmTASIMD(dst, a, b []float64, k, m, n, lo, hi int, accum bool) {
	if !accum {
		zeroRange(dst, lo*n, hi*n)
	}
	if k == 0 || n == 0 || lo >= hi {
		return
	}
	mB, nB := uintptr(m)*8, uintptr(n)*8
	i := lo
	for ; tile8(n) && i+8 <= hi; i += 8 {
		gemmTile8(&a[i], 8, mB, &b[0], &dst[i*n], nB, uintptr(k), uintptr(n))
	}
	for ; i+4 <= hi; i += 4 {
		gemmTile4(&a[i], 8, mB, &b[0], &dst[i*n], nB, uintptr(k), uintptr(n))
	}
	for ; i < hi; i++ {
		gemmTile1(&a[i], mB, &b[0], &dst[i*n], uintptr(k), uintptr(n))
	}
}

// gemmStepTASIMD applies rows [lo,hi) of w += alpha·(aᵀ·b). Unlike the
// product kernels it has work to do when k == 0: w += alpha·0, which is what
// an Axpy of a cleared gradient does to a −0 or a non-finite weight.
func gemmStepTASIMD(w, a, b []float64, k, m, n, lo, hi int, alpha float64) {
	if n == 0 || lo >= hi {
		return
	}
	if k == 0 {
		a, b = w, w // never read at k == 0; any valid pointers will do
	}
	mB, nB := uintptr(m)*8, uintptr(n)*8
	i := lo
	for ; tile8(n) && i+8 <= hi; i += 8 {
		gemmStep8(&a[i], mB, &b[0], &w[i*n], nB, uintptr(k), uintptr(n), alpha)
	}
	for ; i+4 <= hi; i += 4 {
		gemmStep4(&a[i], mB, &b[0], &w[i*n], nB, uintptr(k), uintptr(n), alpha)
	}
	for ; i < hi; i++ {
		gemmStep1(&a[i], mB, &b[0], &w[i*n], uintptr(k), uintptr(n), alpha)
	}
}

// gemmTBSIMD computes rows [lo,hi) of dst = a·bᵀ (+= when accum) two rows
// at a time with dotTB8, which writes dst itself; an odd last row goes
// through dotTB4, and dotTB8 gives each output the same bits.
func gemmTBSIMD(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	if k == 0 {
		if !accum {
			zeroRange(dst, lo*n, hi*n)
		}
		return
	}
	if n == 0 {
		return
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		dotTB8(&a[i*k], &b[0], &dst[i*n], uintptr(k), uintptr(n), accum)
	}
	var out [4]float64
	kB := uintptr(k) * 8
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		orow := dst[i*n : i*n+n]
		for j := 0; j < n; j += 4 {
			rows := n - j
			if rows > 4 {
				rows = 4
			}
			dotTB4(&arow[0], &b[j*k], kB, uintptr(rows), uintptr(k), &out)
			if accum {
				for c := 0; c < rows; c++ {
					orow[j+c] += out[c]
				}
			} else {
				for c := 0; c < rows; c++ {
					orow[j+c] = out[c]
				}
			}
		}
	}
}

//go:noescape
func axpyAVX(alpha float64, x, y *float64, n uintptr)

//go:noescape
func addRowsAVX(dst *float64, lddB uintptr, src *float64, rows, n uintptr)

//go:noescape
func addBiasAVX(dst, bias *float64, rows, n uintptr)

//go:noescape
func reluFwdAVX(dst, x *float64, n uintptr)

//go:noescape
func reluBwdAVX(dst, grad, x *float64, n uintptr)

//go:noescape
func signsAVX(dst *int8, v *float64, n uintptr)

//go:noescape
func signMatchesAVX(v *float64, signs *int8, n uintptr) uintptr

//go:noescape
func subSignsAVX(dst *int8, prev, cur *float64, n uintptr) bool

//go:noescape
func indicesAtLeastAVX(dst *uint32, room uintptr, v *float64, n uintptr, floor2 uint64) (written, read uintptr)

//go:noescape
func maxPool2x2AVX(out *float64, argmax *int, x *float64, base, w, oh, ow uintptr)

//go:noescape
func finiteRangeAVX(v *float64, n uintptr, lohi *[2]float64) bool

//go:noescape
func quantize8AVX(dst *byte, v *float64, n uintptr, lo, scale float64)

//go:noescape
func exactAddAVX(hi, lo, x *float64, blocks uintptr, w float64) uintptr

//go:noescape
func exactMergeAVX(hi, lo, bhi, blo *float64, blocks uintptr) uintptr

//go:noescape
func exactRoundAVX(dst, hi, lo *float64, blocks uintptr)

//go:noescape
func decodeBEAVX(dst *float64, src *byte, blocks uintptr) uintptr

//go:noescape
func encodeBEAVX(dst *byte, src *float64, blocks uintptr)

//go:noescape
func expAVX(dst, x *float64, n uintptr) uintptr

//go:noescape
func logAVX(dst, x *float64, n uintptr) uintptr

//go:noescape
func maxShiftAVX(dst, x *float64, rows, cols uintptr)
