package tensor

// Elementwise hot-path helpers with AVX-512 fast paths (see
// elemwise_avx512_amd64.s) behind the same simdGEMM switch as the GEMM
// kernels. The Go loops are the reference semantics.

// Axpy computes y[i] += alpha*x[i]. Slices must have equal length.
//
//cmfl:hotpath
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if simdGEMM {
		axpyAVX(alpha, &x[0], &y[0], uintptr(len(x)))
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ReLUFwd computes dst[i] = max(x[i], 0).
//
//cmfl:hotpath
func ReLUFwd(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: ReLUFwd length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if simdGEMM {
		reluFwdAVX(&dst[0], &x[0], uintptr(len(x)))
		return
	}
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUBwd computes dst[i] = grad[i] where x[i] > 0 and 0 elsewhere.
//
//cmfl:hotpath
func ReLUBwd(dst, grad, x []float64) {
	if len(dst) != len(grad) || len(dst) != len(x) {
		panic("tensor: ReLUBwd length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if simdGEMM {
		reluBwdAVX(&dst[0], &grad[0], &x[0], uintptr(len(x)))
		return
	}
	for i, v := range x {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

// AddRows adds rows of n elements, stored one after another in src, into
// rows of dst ld elements apart: dst[r·ld+i] += src[r·n+i] for r < rows,
// i < n. It is the scatter of a convolution's column row into its input
// gradient. Each element takes the one add the loop does, with src's value
// as the first operand.
//
//cmfl:hotpath
func AddRows(dst []float64, ld int, src []float64, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if n > ld || len(src) < rows*n || len(dst) < (rows-1)*ld+n {
		panic("tensor: AddRows shape mismatch")
	}
	if simdGEMM {
		addRowsAVX(&dst[0], uintptr(ld)*8, &src[0], uintptr(rows), uintptr(n))
		return
	}
	for r := 0; r < rows; r++ {
		d := dst[r*ld : r*ld+n]
		for i, v := range src[r*n : r*n+n] {
			d[i] = v + d[i]
		}
	}
}

// AddBias adds bias[r] to each of the n elements of row r of dst, which
// holds len(bias) rows of n: a convolution's per-channel bias. Each element
// takes one add, with dst's value as the first operand.
//
//cmfl:hotpath
func AddBias(dst, bias []float64, n int) {
	rows := len(bias)
	if len(dst) != rows*n {
		panic("tensor: AddBias length mismatch")
	}
	if rows == 0 || n == 0 {
		return
	}
	if simdGEMM {
		addBiasAVX(&dst[0], &bias[0], uintptr(rows), uintptr(n))
		return
	}
	for r, v := range bias {
		row := dst[r*n : r*n+n]
		for i := range row {
			row[i] += v
		}
	}
}
