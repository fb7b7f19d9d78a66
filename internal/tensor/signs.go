package tensor

import "math"

// Sign kernels for the relevance check (Eq. 9) and the magnitude sweep of
// top-k selection, with AVX-512 fast paths (see signs_avx512_amd64.s) behind
// the same simdGEMM switch as the other elementwise kernels. The Go loops
// are the reference semantics and the path every other platform runs: a
// coordinate's sign is +1, −1, or 0 for ±0 and NaN. Gradient signs are coin
// flips to a branch predictor, so the sign loops carry no data-dependent
// branch: each comparison becomes a flag materialised into a register.

// sign returns (x > 0) − (x < 0). The compiler turns each `if` into a SETcc.
func sign(x float64) int8 {
	var pos, neg int8
	if x > 0 {
		pos = 1
	}
	if x < 0 {
		neg = 1
	}
	return pos - neg
}

// Signs writes the sign of v[i] into dst[i]. Slices must have equal length.
//
//cmfl:hotpath
func Signs(dst []int8, v []float64) {
	if len(dst) != len(v) {
		panic("tensor: Signs length mismatch")
	}
	if len(v) == 0 {
		return
	}
	if simdGEMM {
		signsAVX(&dst[0], &v[0], uintptr(len(v)))
		return
	}
	for i, x := range v {
		dst[i] = sign(x)
	}
}

// SignMatches counts the coordinates whose sign equals signs[i]. Slices must
// have equal length.
//
//cmfl:hotpath
func SignMatches(v []float64, signs []int8) int {
	if len(v) != len(signs) {
		panic("tensor: SignMatches length mismatch")
	}
	if len(v) == 0 {
		return 0
	}
	if simdGEMM {
		return int(signMatchesAVX(&v[0], &signs[0], uintptr(len(v))))
	}
	matches := 0
	for i, x := range v {
		var eq int
		if sign(x) == signs[i] {
			eq = 1
		}
		matches += eq
	}
	return matches
}

// SubSigns overwrites prev[i] with cur[i] − prev[i], writes that
// difference's sign into dst[i], and reports whether any difference is
// non-zero (a NaN is): one sweep for what would otherwise be a subtraction
// loop, a zero test and Signs. Slices must have equal length.
//
//cmfl:hotpath
func SubSigns(dst []int8, prev, cur []float64) bool {
	if len(dst) != len(prev) || len(prev) != len(cur) {
		panic("tensor: SubSigns length mismatch")
	}
	if len(prev) == 0 {
		return false
	}
	if simdGEMM {
		return subSignsAVX(&dst[0], &prev[0], &cur[0], uintptr(len(prev)))
	}
	var nonZero uint64
	for i, p := range prev {
		d := cur[i] - p
		prev[i] = d
		dst[i] = sign(d)
		nonZero |= math.Float64bits(d) << 1 // every bit but the sign: zero only for ±0
	}
	return nonZero != 0
}

// IndicesAtLeast overwrites dst, from its start and in ascending order, with
// the index of every v[i] whose bits with the sign cleared are at least
// floor, and returns them. Those bits order as |v| does, and a NaN's exceed
// +Inf's, so a NaN passes every floor up to +Inf's bits. The kernel stores
// 16 indices at a time, so dst's capacity must hold the indices and 16 more;
// when it does not, ok is false and the caller grows dst and asks again.
// v must have fewer than 2³² coordinates.
//
//cmfl:hotpath
func IndicesAtLeast(dst []uint32, v []float64, floor uint64) (idx []uint32, ok bool) {
	dst = dst[:cap(dst)]
	limit := len(dst) - 16 // the most indices dst can return
	if limit < 0 {
		return dst[:0], false
	}
	if floor>>63 != 0 { // above every sign-cleared bit pattern
		return dst[:0], true
	}
	floor <<= 1 // compare bits<<1 instead: the sign bit drops out
	n, i := 0, 0
	if simdGEMM && len(v) >= 16 {
		written, read := indicesAtLeastAVX(&dst[0], uintptr(len(dst)), &v[0], uintptr(len(v)), floor)
		n, i = int(written), int(read)
		if n > limit {
			return dst[:0], false
		}
	}
	for ; i < len(v); i++ { // the portable loop, and the kernel's last <16
		if math.Float64bits(v[i])<<1 >= floor {
			if n == limit {
				return dst[:0], false
			}
			dst[n] = uint32(i)
			n++
		}
	}
	return dst[:n], true
}
