//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go kernels; simdGEMM stays false so these
// stubs are never reached.

func gemmNNSIMD(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	panic("tensor: SIMD GEMM unavailable on this platform")
}

func gemmTASIMD(dst, a, b []float64, k, m, n, lo, hi int, accum bool) {
	panic("tensor: SIMD GEMM unavailable on this platform")
}

func gemmStepTASIMD(w, a, b []float64, k, m, n, lo, hi int, alpha float64) {
	panic("tensor: SIMD GEMM unavailable on this platform")
}

func gemmTBSIMD(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	panic("tensor: SIMD GEMM unavailable on this platform")
}

func axpyAVX(alpha float64, x, y *float64, n uintptr) {
	panic("tensor: SIMD axpy unavailable on this platform")
}

func addRowsAVX(dst *float64, lddB uintptr, src *float64, rows, n uintptr) {
	panic("tensor: SIMD row add unavailable on this platform")
}

func addBiasAVX(dst, bias *float64, rows, n uintptr) {
	panic("tensor: SIMD row add unavailable on this platform")
}

func reluFwdAVX(dst, x *float64, n uintptr) {
	panic("tensor: SIMD relu unavailable on this platform")
}

func reluBwdAVX(dst, grad, x *float64, n uintptr) {
	panic("tensor: SIMD relu unavailable on this platform")
}

func signsAVX(dst *int8, v *float64, n uintptr) {
	panic("tensor: SIMD signs unavailable on this platform")
}

func signMatchesAVX(v *float64, signs *int8, n uintptr) uintptr {
	panic("tensor: SIMD signs unavailable on this platform")
}

func subSignsAVX(dst *int8, prev, cur *float64, n uintptr) bool {
	panic("tensor: SIMD signs unavailable on this platform")
}

func indicesAtLeastAVX(dst *uint32, room uintptr, v *float64, n uintptr, floor2 uint64) (written, read uintptr) {
	panic("tensor: SIMD signs unavailable on this platform")
}

func maxPool2x2AVX(out *float64, argmax *int, x *float64, base, w, oh, ow uintptr) {
	panic("tensor: SIMD max pool unavailable on this platform")
}

func finiteRangeAVX(v *float64, n uintptr, lohi *[2]float64) bool {
	panic("tensor: SIMD quantisation unavailable on this platform")
}

func quantize8AVX(dst *byte, v *float64, n uintptr, lo, scale float64) {
	panic("tensor: SIMD quantisation unavailable on this platform")
}

func exactAddAVX(hi, lo, x *float64, blocks uintptr, w float64) uintptr {
	panic("tensor: SIMD exact sum unavailable on this platform")
}

func exactMergeAVX(hi, lo, bhi, blo *float64, blocks uintptr) uintptr {
	panic("tensor: SIMD exact sum unavailable on this platform")
}

func exactRoundAVX(dst, hi, lo *float64, blocks uintptr) {
	panic("tensor: SIMD exact sum unavailable on this platform")
}

func decodeBEAVX(dst *float64, src *byte, blocks uintptr) uintptr {
	panic("tensor: SIMD wire codec unavailable on this platform")
}

func encodeBEAVX(dst *byte, src *float64, blocks uintptr) {
	panic("tensor: SIMD wire codec unavailable on this platform")
}

func expAVX(dst, x *float64, n uintptr) uintptr {
	panic("tensor: SIMD exp unavailable on this platform")
}

func logAVX(dst, x *float64, n uintptr) uintptr {
	panic("tensor: SIMD log unavailable on this platform")
}

func maxShiftAVX(dst, x *float64, rows, cols uintptr) {
	panic("tensor: SIMD softmax shift unavailable on this platform")
}
