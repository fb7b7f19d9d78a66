package tensor

import (
	"testing"
	"unsafe"
)

// TestMaxPoolStaysInBounds runs every tail length (and the widths with full
// steps before it) with the input and both outputs ending flush against an
// inaccessible page: neither the two 64-byte row loads nor the masked stores
// may touch a lane beyond the slices. An odd width leaves the last input
// column unread, so it checks the reads of the row before the boundary too.
func TestMaxPoolStaysInBounds(t *testing.T) {
	floats := func(n int) []float64 {
		page := guardedPage(t)
		return unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
	}
	withBothPaths(t, func(t *testing.T) {
		for w := 2; w <= 35; w++ {
			const planes, h = 2, 4
			oh, ow := h/2, w/2
			x, out := floats(planes*h*w), floats(planes*oh*ow)
			idxPage := floats(planes * oh * ow)
			argmax := unsafe.Slice((*int)(unsafe.Pointer(&idxPage[0])), len(idxPage))
			for i := range x {
				x[i] = float64(i % 7)
			}
			MaxPool2x2(out, argmax, x, planes, h, w)
			wantOut, wantArg := poolOracle(x, planes, h, w)
			for i := range out {
				if out[i] != wantOut[i] || argmax[i] != wantArg[i] {
					t.Fatalf("w=%d: output %d = %v from %d, want %v from %d", w, i, out[i], argmax[i], wantOut[i], wantArg[i])
				}
			}
		}
	})
}
