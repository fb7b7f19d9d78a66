package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestStepKernelsStayInBounds runs every narrow width with w, a and b each
// ending flush against an inaccessible page: the masked loads and stores of
// the last column block, in the four-row kernel and the one-row kernel
// alike, may not touch a lane beyond the matrix, not even to read it.
func TestStepKernelsStayInBounds(t *testing.T) {
	guarded := func(src *Tensor) *Tensor {
		page := guardedPage(t)
		n := len(src.Data)
		data := unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
		copy(data, src.Data)
		return &Tensor{Shape: src.Shape, Data: data}
	}
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for _, k := range []int{1, 3} {
			for m := 1; m <= 9; m++ {
				for n := 1; n <= 17; n++ {
					a, b, w := stepOperand(rng, k, m), stepOperand(rng, k, n), stepOperand(rng, m, n)
					want := w.Clone()
					stepReference(want, a, b, -0.25)
					got := guarded(w)
					StepMatMulTransA(got, guarded(a), guarded(b), -0.25)
					for i := range got.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("k=%d m=%d n=%d: w[%d] = %v, want %v", k, m, n, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	})
}
