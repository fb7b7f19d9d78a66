package tensor

import (
	"math/rand"
	"testing"
)

// benchShapes are the GEMM shapes that dominate the reproduction workloads:
// the paper-scale MNIST CNN's two im2col convolutions, the next-word LSTM's
// fused gate products, and a large square case that exercises the parallel
// row-panel path.
var benchShapes = []struct {
	name    string
	m, k, n int
}{
	{"tiny-2x64x64", 2, 64, 64},
	{"mnist-conv1-16x25x576", 16, 25, 576},
	{"mnist-conv2-32x400x144", 32, 400, 144},
	{"lstm-gates-32x64x256", 32, 64, 256},
	{"square-256", 256, 256, 256},
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// BenchmarkMatMul measures dst = a·b at the reproduction's hot shapes.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randTensor(rng, s.m, s.k)
			bb := randTensor(rng, s.k, s.n)
			dst := New(s.m, s.n)
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
		})
	}
}

// BenchmarkMatMulTransA measures dst = aᵀ·b (the backward-pass weight
// gradient product).
func BenchmarkMatMulTransA(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			a := randTensor(rng, s.k, s.m)
			bb := randTensor(rng, s.k, s.n)
			dst := New(s.m, s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransAInto(dst, a, bb)
			}
		})
	}
}

// BenchmarkMatMulTransB measures dst = a·bᵀ (the backward-pass input
// gradient product).
func BenchmarkMatMulTransB(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			a := randTensor(rng, s.m, s.k)
			bb := randTensor(rng, s.n, s.k)
			dst := New(s.m, s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, a, bb)
			}
		})
	}
}

// BenchmarkMatMulAlloc measures the allocating wrapper, pinning the
// allocation cost the *Into variants remove from the training hot path.
func BenchmarkMatMulAlloc(b *testing.B) {
	s := benchShapes[3] // lstm-gates
	rng := rand.New(rand.NewSource(4))
	a := randTensor(rng, s.m, s.k)
	bb := randTensor(rng, s.k, s.n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, bb)
	}
}

// BenchmarkNarrowProducts measures the products of the 68-parameter
// logistic model that sim_100k_narrow trains: the 8×16×4 forward x·W and
// the step W += α·xᵀ·g, both four columns wide and so on the 4-row tile.
func BenchmarkNarrowProducts(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, w, g, out := randTensor(rng, 8, 16), randTensor(rng, 16, 4), randTensor(rng, 8, 4), New(8, 4)
	b.Run("forward-8x16x4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, w)
		}
	})
	b.Run("step-8x16x4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StepMatMulTransA(w, x, g, -1e-12)
		}
	})
}

// BenchmarkConvWeightGrad measures dW += dY·colsᵀ for one sample of each
// convolution of the cmfl-bench CNN, the A·Bᵀ products of its local round.
func BenchmarkConvWeightGrad(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"conv1-8x576x25", 8, 576, 25},
		{"conv2-16x64x200", 16, 64, 200},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			dy, cols, gw := randTensor(rng, s.m, s.k), randTensor(rng, s.n, s.k), New(s.m, s.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddMatMulTransB(gw, dy, cols)
			}
		})
	}
}
