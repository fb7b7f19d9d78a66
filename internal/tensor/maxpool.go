package tensor

import "math"

// The 2×2, stride-2 max pool, with an AVX-512 fast path (see
// maxpool_avx512_amd64.s) behind the same simdGEMM switch as the other
// elementwise kernels. The Go loop is the reference semantics and the path
// every other platform runs.
//
// A window's maximum is the first element, in (0,0), (0,1), (1,0), (1,1)
// order, that is strictly greater than everything before it, starting from
// −Inf. Ties therefore go to the earliest position, −0 and +0 tie, and a NaN
// is never selected. A window with nothing above −Inf (all NaN, all −Inf)
// yields −Inf and the index of its own (0,0) element, so its gradient stays
// inside the window.

// MaxPool2x2 pools planes contiguous h×w planes of x into out, h/2 × w/2
// each (an odd last row or column is ignored), and records in argmax the
// index into x of every output's selected element.
//
//cmfl:hotpath
func MaxPool2x2(out []float64, argmax []int, x []float64, planes, h, w int) {
	oh, ow := h/2, w/2
	if len(x) != planes*h*w || len(out) != planes*oh*ow || len(argmax) != len(out) {
		panic("tensor: MaxPool2x2 length mismatch")
	}
	if len(out) == 0 {
		return
	}
	for p := 0; p < planes; p++ {
		base, o := p*h*w, p*oh*ow
		if simdGEMM {
			maxPool2x2AVX(&out[o], &argmax[o], &x[base], uintptr(base), uintptr(w), uintptr(oh), uintptr(ow))
			continue
		}
		maxPool2x2Go(out[o:o+oh*ow], argmax[o:o+oh*ow], x[base:base+h*w], base, w, ow)
	}
}

// maxPool2x2Go pools one plane, whose first element is x[0] and has index
// base in the whole tensor, walking two input row slices per output row.
//
//cmfl:hotpath
func maxPool2x2Go(out []float64, argmax []int, x []float64, base, w, ow int) {
	for oy := 0; oy*ow < len(out); oy++ {
		first := 2 * oy * w
		top := x[first : first+2*ow]
		bot := x[first+w : first+w+2*ow]
		o := out[oy*ow : (oy+1)*ow]
		am := argmax[oy*ow : (oy+1)*ow]
		for ox := range o {
			i := 2 * ox
			best, at := math.Inf(-1), i
			if v := top[i]; v > best {
				best = v
			}
			if v := top[i+1]; v > best {
				best, at = v, i+1
			}
			if v := bot[i]; v > best {
				best, at = v, i+w
			}
			if v := bot[i+1]; v > best {
				best, at = v, i+w+1
			}
			o[ox], am[ox] = best, base+first+at
		}
	}
}
