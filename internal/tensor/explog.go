package tensor

import "math"

// Exp and log over a slice, and the softmax numerators built on exp, with
// AVX-512 fast paths (see explog_avx512_amd64.s) behind the same simdGEMM
// switch as the other kernels. What they store is math.Exp or math.Log of
// each element, bit for bit, on either path: the kernels copy the amd64
// routines lane for lane and leave every block with a lane off those
// routines' straight path to them.

// ExpInto writes dst[i] = math.Exp(x[i]). dst and x must have equal length;
// they may be the same slice.
//
//cmfl:hotpath
func ExpInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: ExpInto length mismatch")
	}
	if !simdGEMM {
		for i, v := range x {
			dst[i] = math.Exp(v)
		}
		return
	}
	for i := 0; i < len(x); {
		i += int(expAVX(&dst[i], &x[i], uintptr(len(x)-i)))
		for end := min(i+8, len(x)); i < end; i++ {
			dst[i] = math.Exp(x[i])
		}
	}
}

// LogInto writes dst[i] = math.Log(x[i]). dst and x must have equal length;
// they may be the same slice.
//
//cmfl:hotpath
func LogInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: LogInto length mismatch")
	}
	if !simdGEMM {
		for i, v := range x {
			dst[i] = math.Log(v)
		}
		return
	}
	for i := 0; i < len(x); {
		i += int(logAVX(&dst[i], &x[i], uintptr(len(x)-i)))
		for end := min(i+8, len(x)); i < end; i++ {
			dst[i] = math.Log(x[i])
		}
	}
}

// SoftmaxExpInto writes each row's unnormalised softmax, dst[j] =
// math.Exp(x[j] − m), over rows of cols values, m being the row's max as
// the scan m = row[0]; if v > m { m = v } takes it (a NaN after row[0] is
// passed over, a NaN row[0] is kept). dst and x must have equal length, a
// multiple of cols; they may be the same slice.
//
//cmfl:hotpath
func SoftmaxExpInto(dst, x []float64, cols int) {
	if len(dst) != len(x) || len(x) > 0 && (cols <= 0 || len(x)%cols != 0) {
		panic("tensor: SoftmaxExpInto shape mismatch")
	}
	if len(x) == 0 {
		return
	}
	if simdGEMM {
		maxShiftAVX(&dst[0], &x[0], uintptr(len(x)/cols), uintptr(cols))
		ExpInto(dst, dst)
		return
	}
	for r := 0; r < len(x); r += cols {
		row := x[r : r+cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		for j, v := range row {
			dst[r+j] = math.Exp(v - m)
		}
	}
}
