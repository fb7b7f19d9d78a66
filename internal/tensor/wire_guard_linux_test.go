package tensor

import (
	"math"
	"testing"
	"unsafe"
)

// TestWireKernelsStayInBounds runs every length up to two blocks and a bit
// with the words and the bytes each ending flush against an inaccessible
// page: the kernels take whole blocks only and may not touch the tail, not
// even to read it.
func TestWireKernelsStayInBounds(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		for n := 1; n <= 2*WireBlock+1; n++ {
			page := guardedPage(t)
			v := unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
			for i := range v {
				v[i] = float64(i) + 0.5
			}
			out := guardedPage(t)
			wire := out[len(out)-8*n:]
			want := 0
			if simdGEMM {
				want = n / WireBlock * WireBlock
			}
			if got := EncodeBE(wire, v); got != want {
				t.Fatalf("n=%d: EncodeBE did %d, want %d", n, got, want)
			}
			for i := range v {
				v[i] = math.Inf(1)
			}
			if got := DecodeBE(v, wire); got != want {
				t.Fatalf("n=%d: DecodeBE did %d, want %d", n, got, want)
			}
			for i := range want {
				if v[i] != float64(i)+0.5 {
					t.Fatalf("n=%d: word %d decodes to %v", n, i, v[i])
				}
			}
		}
	})
}
