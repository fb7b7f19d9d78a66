package tensor

import "fmt"

// This file is the compute substrate's GEMM core. Three layouts cover every
// product the training code needs:
//
//	MatMulInto       dst = a·b       (forward activations)
//	MatMulTransAInto dst = aᵀ·b      (weight gradients)
//	MatMulTransBInto dst = a·bᵀ      (input gradients)
//
// plus Add* accumulate variants for gradient accumulation and
// StepMatMulTransA, which applies w += alpha·aᵀ·b without storing the
// product (a Dense layer's SGD step). All kernels are register-tiled: a
// block of the output is accumulated in registers while the inner k-loop
// streams the operands, so each load feeds several multiply-adds instead
// of one. The portable kernels below use 4×2 (NN, TransA) and 2×2 (TransB)
// blocks; the AVX-512 kernels (gemm_avx512_amd64.s) use 8×16, 4×8 and 1×16
// tiles for NN, TransA and the step, and two-row and one-row dot-product
// kernels for TransB. Matrices whose flop count crosses gemmParallelFlops
// are split into row panels and executed on the shared worker pool (see
// pool.go); each output element is produced by exactly one goroutine with
// a fixed accumulation order, so results are bitwise identical at any
// parallelism level.
//
// NN and TransA accumulate every output element in ascending-p order — bit
// for bit the naive triple loop. TransB uses two-way partial sums (dot2),
// which reassociates the k-sum; equivalence tests pin every kernel to the
// naive reference within 1e-12 relative error.

// simdGEMM selects the hand-written AVX-512 kernels (gemm_avx512_amd64.s)
// when the CPU supports them; the pure-Go kernels below are the reference
// implementation and the fallback everywhere else.
var simdGEMM bool

// gemmOp is what a product does with its destination.
type gemmOp uint8

const (
	gemmSet  gemmOp = iota // dst = product
	gemmAdd                // dst += product
	gemmStep               // dst += alpha·product, the product never stored (TransA)
)

// gemmLayout is a product's operand layout.
type gemmLayout uint8

const (
	layoutNN gemmLayout = iota // a·b
	layoutTA                   // aᵀ·b
	layoutTB                   // a·bᵀ
)

// product is one GEMM call: layout, op, operands, the inner dimension k,
// m output rows of n columns, and the step's alpha. A row panel of it is
// rows(lo, hi), so the pool takes panels as values (see pool.go).
type product struct {
	layout    gemmLayout
	op        gemmOp
	dst, a, b []float64
	k, m, n   int
	alpha     float64
}

// rows computes output rows [lo, hi) of g.
//
//cmfl:hotpath
func (g *product) rows(lo, hi int) {
	switch g.layout {
	case layoutNN:
		gemmNN(g.dst, g.a, g.b, g.k, g.n, lo, hi, g.op == gemmAdd)
	case layoutTA:
		gemmTA(g.dst, g.a, g.b, g.k, g.m, g.n, lo, hi, g.op, g.alpha)
	case layoutTB:
		gemmTB(g.dst, g.a, g.b, g.k, g.n, lo, hi, g.op == gemmAdd)
	}
}

func gemmNN(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	if simdGEMM {
		gemmNNSIMD(dst, a, b, k, n, lo, hi, accum)
		return
	}
	gemmNNGo(dst, a, b, k, n, lo, hi, accum)
}

func gemmTA(dst, a, b []float64, k, m, n, lo, hi int, op gemmOp, alpha float64) {
	switch {
	case simdGEMM && op == gemmStep:
		gemmStepTASIMD(dst, a, b, k, m, n, lo, hi, alpha)
	case simdGEMM:
		gemmTASIMD(dst, a, b, k, m, n, lo, hi, op == gemmAdd)
	default:
		gemmTAGo(dst, a, b, k, m, n, lo, hi, op != gemmSet, alpha)
	}
}

func gemmTB(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	if simdGEMM {
		gemmTBSIMD(dst, a, b, k, n, lo, hi, accum)
		return
	}
	gemmTBGo(dst, a, b, k, n, lo, hi, accum)
}

func checkMatMulShapes(op string, dst, a, b *Tensor, m, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		//cmfl:lint-ignore hotpathalloc panic path: the message is built only when a shape bug aborts the run
		panic("tensor: " + op + " requires 2-D operands")
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// MatMulInto computes dst = a(m×k) · b(k×n) without allocating. dst must be
// m×n and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	return matMulNNInto(dst, a, b, gemmSet)
}

// AddMatMul computes dst += a(m×k) · b(k×n) without allocating.
func AddMatMul(dst, a, b *Tensor) *Tensor {
	return matMulNNInto(dst, a, b, gemmAdd)
}

//cmfl:hotpath
func matMulNNInto(dst, a, b *Tensor, op gemmOp) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	checkMatMulShapes("MatMulInto", dst, a, b, m, n)
	g := product{layout: layoutNN, op: op, dst: dst.Data, a: a.Data, b: b.Data, k: k, m: m, n: n}
	compute(&g)
	return dst
}

// gemmNNGo computes rows [lo,hi) of dst = a·b (+= when accum) with a 4×2
// register tile: eight accumulators live in registers across the k-loop, so
// every pair of b loads feeds eight multiply-adds.
//
//cmfl:hotpath
func gemmNNGo(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	if !accum {
		zeroRange(dst, lo*n, hi*n)
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			idx := j
			for p := 0; p < k; p++ {
				b0, b1 := b[idx], b[idx+1]
				idx += n
				av := a0[p]
				s00 += av * b0
				s01 += av * b1
				av = a1[p]
				s10 += av * b0
				s11 += av * b1
				av = a2[p]
				s20 += av * b0
				s21 += av * b1
				av = a3[p]
				s30 += av * b0
				s31 += av * b1
			}
			d0[j] += s00
			d0[j+1] += s01
			d1[j] += s10
			d1[j+1] += s11
			d2[j] += s20
			d2[j+1] += s21
			d3[j] += s30
			d3[j+1] += s31
		}
		if j < n {
			var s0, s1, s2, s3 float64
			idx := j
			for p := 0; p < k; p++ {
				bv := b[idx]
				idx += n
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			d0[j] += s0
			d1[j] += s1
			d2[j] += s2
			d3[j] += s3
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		orow := dst[i*n : i*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			var s0, s1 float64
			idx := j
			for p := 0; p < k; p++ {
				av := arow[p]
				s0 += av * b[idx]
				s1 += av * b[idx+1]
				idx += n
			}
			orow[j] += s0
			orow[j+1] += s1
		}
		if j < n {
			var s float64
			idx := j
			for p := 0; p < k; p++ {
				s += arow[p] * b[idx]
				idx += n
			}
			orow[j] += s
		}
	}
}

// MatMulTransAInto computes dst = aᵀ·b where a is k×m and b is k×n, without
// allocating. dst must be m×n and must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	return matMulTAInto(dst, a, b, gemmSet, 1)
}

// AddMatMulTransA computes dst += aᵀ·b — the gradient-accumulation form
// used for weight gradients (dW += xᵀ·dY).
func AddMatMulTransA(dst, a, b *Tensor) *Tensor {
	return matMulTAInto(dst, a, b, gemmAdd, 1)
}

// StepMatMulTransA computes w += alpha·(aᵀ·b) where a is k×m and b is k×n,
// without allocating and without storing aᵀ·b: each element's products are
// summed from zero in registers and the sum is applied to w at once. It is
// the in-place SGD step of a weight matrix, w −= lr·(xᵀ·gradOut), and every
// element gets the bits that clearing a gradient, AddMatMulTransA into it
// and Axpy(alpha, gradient, w) give: the sum is the one the accumulate form
// forms from a zeroed lane, and the update is Axpy's, one fused
// multiply-add in the vector kernel and y += alpha*x in the portable loop.
// Rows split across the pool exactly as in MatMulTransAInto.
func StepMatMulTransA(w, a, b *Tensor, alpha float64) *Tensor {
	return matMulTAInto(w, a, b, gemmStep, alpha)
}

//cmfl:hotpath
func matMulTAInto(dst, a, b *Tensor, op gemmOp, alpha float64) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", k, k2))
	}
	checkMatMulShapes("MatMulTransAInto", dst, a, b, m, n)
	g := product{layout: layoutTA, op: op, dst: dst.Data, a: a.Data, b: b.Data, k: k, m: m, n: n, alpha: alpha}
	compute(&g)
	return dst
}

// gemmTAGo computes rows [lo,hi) of dst += alpha·(aᵀ·b), after clearing
// them unless accum, with a 4×2 register tile. Rows of dst correspond to
// columns of a, so the four a loads per k-step are consecutive in memory.
// The products and accumulate forms pass alpha = 1, which scales every sum
// exactly; StepMatMulTransA passes the step's.
//
//cmfl:hotpath
func gemmTAGo(dst, a, b []float64, k, m, n, lo, hi int, accum bool, alpha float64) {
	if !accum {
		zeroRange(dst, lo*n, hi*n)
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			ai, bj := i, j
			for p := 0; p < k; p++ {
				a0, a1, a2, a3 := a[ai], a[ai+1], a[ai+2], a[ai+3]
				b0, b1 := b[bj], b[bj+1]
				ai += m
				bj += n
				s00 += a0 * b0
				s01 += a0 * b1
				s10 += a1 * b0
				s11 += a1 * b1
				s20 += a2 * b0
				s21 += a2 * b1
				s30 += a3 * b0
				s31 += a3 * b1
			}
			d0[j] += alpha * s00
			d0[j+1] += alpha * s01
			d1[j] += alpha * s10
			d1[j+1] += alpha * s11
			d2[j] += alpha * s20
			d2[j+1] += alpha * s21
			d3[j] += alpha * s30
			d3[j+1] += alpha * s31
		}
		if j < n {
			var s0, s1, s2, s3 float64
			ai, bj := i, j
			for p := 0; p < k; p++ {
				bv := b[bj]
				s0 += a[ai] * bv
				s1 += a[ai+1] * bv
				s2 += a[ai+2] * bv
				s3 += a[ai+3] * bv
				ai += m
				bj += n
			}
			d0[j] += alpha * s0
			d1[j] += alpha * s1
			d2[j] += alpha * s2
			d3[j] += alpha * s3
		}
	}
	for ; i < hi; i++ {
		drow := dst[i*n : i*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			var s0, s1 float64
			ai, bj := i, j
			for p := 0; p < k; p++ {
				av := a[ai]
				s0 += av * b[bj]
				s1 += av * b[bj+1]
				ai += m
				bj += n
			}
			drow[j] += alpha * s0
			drow[j+1] += alpha * s1
		}
		if j < n {
			var s float64
			ai, bj := i, j
			for p := 0; p < k; p++ {
				s += a[ai] * b[bj]
				ai += m
				bj += n
			}
			drow[j] += alpha * s
		}
	}
}

// MatMulTransBInto computes dst = a(m×k) · bᵀ where b is n×k, without
// allocating. dst must be m×n and must not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	return matMulTBInto(dst, a, b, gemmSet)
}

// AddMatMulTransB computes dst += a·bᵀ — the accumulation form used for
// im2col weight gradients (dW += dY·colsᵀ).
func AddMatMulTransB(dst, a, b *Tensor) *Tensor {
	return matMulTBInto(dst, a, b, gemmAdd)
}

//cmfl:hotpath
func matMulTBInto(dst, a, b *Tensor, op gemmOp) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", k, k2))
	}
	checkMatMulShapes("MatMulTransBInto", dst, a, b, m, n)
	g := product{layout: layoutTB, op: op, dst: dst.Data, a: a.Data, b: b.Data, k: k, m: m, n: n}
	compute(&g)
	return dst
}

// gemmTBGo computes rows [lo,hi) of dst = a·bᵀ (+= when accum) as a 2×2 tile
// of row·row dot products. Every element follows dot2's even/odd partial-sum
// order, so results are identical whether an element lands in the tiled or
// the remainder path (and hence across parallel row splits).
//
//cmfl:hotpath
func gemmTBGo(dst, a, b []float64, k, n, lo, hi int, accum bool) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			var s00a, s00b, s01a, s01b, s10a, s10b, s11a, s11b float64
			p := 0
			for ; p+2 <= k; p += 2 {
				av0, av1 := a0[p], a1[p]
				bv0, bv1 := b0[p], b1[p]
				s00a += av0 * bv0
				s01a += av0 * bv1
				s10a += av1 * bv0
				s11a += av1 * bv1
				av0, av1 = a0[p+1], a1[p+1]
				bv0, bv1 = b0[p+1], b1[p+1]
				s00b += av0 * bv0
				s01b += av0 * bv1
				s10b += av1 * bv0
				s11b += av1 * bv1
			}
			s00 := s00a + s00b
			s01 := s01a + s01b
			s10 := s10a + s10b
			s11 := s11a + s11b
			if p < k {
				av0, av1 := a0[p], a1[p]
				bv0, bv1 := b0[p], b1[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
			}
			if accum {
				d0[j] += s00
				d0[j+1] += s01
				d1[j] += s10
				d1[j+1] += s11
			} else {
				d0[j] = s00
				d0[j+1] = s01
				d1[j] = s10
				d1[j+1] = s11
			}
		}
		if j < n {
			brow := b[j*k : j*k+k]
			s0 := dot2(a0, brow)
			s1 := dot2(a1, brow)
			if accum {
				d0[j] += s0
				d1[j] += s1
			} else {
				d0[j] = s0
				d1[j] = s1
			}
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		orow := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			s := dot2(arow, b[j*k:j*k+k])
			if accum {
				orow[j] += s
			} else {
				orow[j] = s
			}
		}
	}
}

// dot2 returns ⟨x, y⟩ using even/odd partial sums — the exact accumulation
// order gemmTB's tiled path follows per element (reassociates relative to a
// naive loop; covered by the 1e-12 equivalence tests).
//
//cmfl:hotpath
func dot2(x, y []float64) float64 {
	y = y[:len(x)]
	var sa, sb float64
	p := 0
	for ; p+2 <= len(x); p += 2 {
		sa += x[p] * y[p]
		sb += x[p+1] * y[p+1]
	}
	s := sa + sb
	if p < len(x) {
		s += x[p] * y[p]
	}
	return s
}

//cmfl:hotpath
func zeroRange(v []float64, lo, hi int) {
	v = v[lo:hi]
	for i := range v {
		v[i] = 0
	}
}
