package tensor

import (
	"testing"
	"unsafe"
)

// TestQuantizeKernelsStayInBounds runs every tail length with the input and
// the output bytes ending flush against an inaccessible page: the masked
// tail of either kernel may not touch a lane beyond the slice, not even to
// read it.
func TestQuantizeKernelsStayInBounds(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		for n := 1; n <= 17; n++ {
			page := guardedPage(t)
			v := unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
			for i := range v {
				v[i] = float64(i%5) - 1.5
			}
			out := guardedPage(t)
			dst := out[len(out)-n:]
			lo, hi, finite := FiniteRange(v)
			if !finite || lo != -1.5 || hi != min(float64(n-1), 4)-1.5 {
				t.Fatalf("n=%d: range [%v, %v], finite %v", n, lo, hi, finite)
			}
			if hi > lo {
				Quantize8(dst, v, lo, hi-lo)
			}
			want, _ := quantize8Oracle(v)
			if string(dst) != string(want[16:]) {
				t.Fatalf("n=%d: bytes %v, want %v", n, dst, want[16:])
			}
		}
	})
}
