package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// stepReference is what StepMatMulTransA replaces: clear a gradient, add
// aᵀ·b into it, and Axpy it into w.
func stepReference(w, a, b *Tensor, alpha float64) {
	g := New(w.Shape[0], w.Shape[1])
	AddMatMulTransA(g, a, b)
	Axpy(alpha, g.Data, w.Data)
}

// checkStep runs one k×m×n step both ways from the same w and compares the
// bits of every weight.
func checkStep(t *testing.T, rng *rand.Rand, k, m, n int, alpha float64) {
	t.Helper()
	a, b, w := edgeOperand(rng, k, m, 8), edgeOperand(rng, k, n, 8), edgeOperand(rng, m, n, 8)
	want := w.Clone()
	stepReference(want, a, b, alpha)
	StepMatMulTransA(w, a, b, alpha)
	for i := range w.Data {
		if math.Float64bits(w.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("k=%d m=%d n=%d alpha=%v: w[%d] = %v (%#x), want %v (%#x)", k, m, n, alpha, i,
				w.Data[i], math.Float64bits(w.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestStepMatMulTransAMatchesClearAddAxpy holds the fused step to the three
// passes it replaces, bit for bit, on both paths: every narrow shape, with
// k = 0 among them (the step is still w += alpha·0, which turns a −0 weight
// into +0 when alpha > 0), and the two wide layers of the benchmark
// workloads plus one whose halves split at an odd row, each at one and at
// two row panels.
func TestStepMatMulTransAMatchesClearAddAxpy(t *testing.T) {
	defer SetMatMulParallelism(0)
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(36))
		for _, par := range []int{1, 2} {
			SetMatMulParallelism(par)
			for _, k := range []int{0, 1, 8} {
				for m := 1; m <= 9; m++ {
					for n := 1; n <= 17; n++ {
						checkStep(t, rng, k, m, n, -0.05)
						checkStep(t, rng, k, m, n, 1.5)
					}
				}
			}
			for _, s := range [][3]int{{8, 1000, 100}, {8, 256, 384}, {8, 97, 200}} {
				checkStep(t, rng, s[0], s[1], s[2], -0.05)
				checkStep(t, rng, s[0], s[1], s[2], 1.5)
			}
		}
	})
}
