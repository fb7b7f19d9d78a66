package tensor

import "math"

// Kernels for 8-bit range quantisation (compress.Uniform8), with AVX-512
// fast paths (see quantize_avx512_amd64.s) behind the same simdGEMM switch as
// the other elementwise kernels. The Go loops are the reference semantics and
// the path every other platform runs. Both kernels produce what the obvious
// loops produce — min and max builtins, then math.Round of (v−lo)/scale·255 —
// bit for bit.

// expMask selects a float64's exponent: all ones for ±Inf and NaN alone.
const expMask = 0x7FF << 52

// FiniteRange returns the least and greatest element of v and whether every
// element is finite, in one sweep. lo and hi are what the min and max
// builtins return over v: of two zeros, min picks −0 and max +0. When finite
// is false they are unspecified. An empty v is finite, with lo = +Inf and
// hi = −Inf.
//
//cmfl:hotpath
func FiniteRange(v []float64) (lo, hi float64, finite bool) {
	if len(v) == 0 {
		return math.Inf(1), math.Inf(-1), true
	}
	if simdGEMM {
		var lohi [2]float64
		finite = finiteRangeAVX(&v[0], uintptr(len(v)), &lohi)
		lo, hi = lohi[0], lohi[1]
	} else {
		lo, hi, finite = finiteRangeGo(v)
	}
	if !finite {
		return lo, hi, false
	}
	// A compare sees −0 = +0, so a zero extreme is whichever zero the sweep
	// met first; the builtins' choice depends on the whole set. Gradient
	// updates almost never have a zero extreme, so the rescan is rare.
	if math.Float64bits(lo)<<1 == 0 {
		lo = 0
		if hasBits(v, 1<<63) {
			lo = math.Copysign(0, -1)
		}
	}
	if math.Float64bits(hi)<<1 == 0 {
		hi = math.Copysign(0, -1)
		if hasBits(v, 0) {
			hi = 0
		}
	}
	return lo, hi, true
}

// finiteRangeGo is FiniteRange's sweep for a non-empty v, stopping at the
// first non-finite element. The extremes move a handful of times in a sweep,
// so their branches predict well.
//
//cmfl:hotpath
func finiteRangeGo(v []float64) (lo, hi float64, finite bool) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		if math.Float64bits(x)&expMask == expMask {
			return lo, hi, false
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, true
}

// hasBits reports whether some element of v has exactly the given bits.
func hasBits(v []float64, bits uint64) bool {
	for _, x := range v {
		if math.Float64bits(x) == bits {
			return true
		}
	}
	return false
}

// Quantize8 writes math.Round((v[i] − lo) / scale · 255) into dst[i]. It
// requires scale > 0 and lo ≤ v[i] ≤ hi with scale = hi − lo, as FiniteRange
// reports them for a v whose range does not overflow: then every quotient q
// lies in [0, 255], where rounding half away from zero is exactly "truncate,
// then add one if q − trunc(q) ≥ 0.5" (that difference is exact, by Sterbenz
// for q ≥ 1). Slices must have equal length.
//
//cmfl:hotpath
func Quantize8(dst []byte, v []float64, lo, scale float64) {
	if len(dst) != len(v) {
		panic("tensor: Quantize8 length mismatch")
	}
	if len(v) == 0 {
		return
	}
	if simdGEMM {
		quantize8AVX(&dst[0], &v[0], uintptr(len(v)), lo, scale)
		return
	}
	for i, x := range v {
		q := (x - lo) / scale * 255
		t := int64(q)
		var up int64
		if q-float64(t) >= 0.5 {
			up = 1
		}
		dst[i] = byte(t + up)
	}
}
