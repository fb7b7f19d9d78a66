package tensor

import (
	"math"
	"testing"
	"unsafe"
)

// TestExpLogKernelsStayInBounds runs every tail length with the input and
// the output ending flush against an inaccessible page: the masked tail of
// a kernel may not touch a lane beyond the slice, not even to read it, nor
// may SoftmaxExpInto's last row at any width.
// A second pass puts a value off the kernels' straight path in the tail, so
// the scalar fallback runs there too.
func TestExpLogKernelsStayInBounds(t *testing.T) {
	floats := func(n int) []float64 {
		page := guardedPage(t)
		return unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
	}
	withBothPaths(t, func(t *testing.T) {
		for _, off := range []float64{0.75, -1000} {
			for n := 1; n <= 17; n++ {
				x, dst := floats(n), floats(n)
				for i := range x {
					x[i] = 0.25 * float64(i+1)
				}
				x[n-1] = off
				for _, k := range []struct {
					kernel func(dst, x []float64)
					oracle func(float64) float64
				}{{ExpInto, math.Exp}, {LogInto, math.Log}} {
					k.kernel(dst, x)
					for i, v := range x {
						if math.Float64bits(dst[i]) != math.Float64bits(k.oracle(v)) {
							t.Fatalf("n=%d: lane %d of f(%v) = %v, want %v", n, i, v, dst[i], k.oracle(v))
						}
					}
				}
				for cols := 1; cols <= n; cols++ {
					rows := n / cols
					x, dst := x[n-rows*cols:], dst[n-rows*cols:]
					SoftmaxExpInto(dst, x, cols)
					want := make([]float64, len(x))
					softmaxExpReference(want, x, cols)
					for i := range want {
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
							t.Fatalf("n=%d cols=%d: lane %d = %v, want %v", n, cols, i, dst[i], want[i])
						}
					}
				}
			}
		}
	})
}
