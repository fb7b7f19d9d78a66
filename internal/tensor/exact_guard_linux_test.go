package tensor

import (
	"testing"
	"unsafe"
)

// TestExactKernelsStayInBounds runs every length up to two blocks and a bit
// with all operands ending flush against an inaccessible page: the kernels
// take whole blocks only and may not touch the tail, not even to read it.
func TestExactKernelsStayInBounds(t *testing.T) {
	floats := func(n int, v float64) []float64 {
		page := guardedPage(t)
		s := unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	withBothPaths(t, func(t *testing.T) {
		for n := 1; n <= 2*ExactBlock+1; n++ {
			hi, lo, x, y := floats(n, 1), floats(n, 0), floats(n, 0.25), floats(n, 0)
			want := 0
			if simdGEMM {
				want = n / ExactBlock * ExactBlock
			}
			if got := ExactAdd(hi, lo, x, 2); got != want {
				t.Fatalf("n=%d: ExactAdd did %d, want %d", n, got, want)
			}
			if got := ExactMerge(hi, lo, x, y); got != want {
				t.Fatalf("n=%d: ExactMerge did %d, want %d", n, got, want)
			}
			if got := ExactRound(y, hi, lo); got != want {
				t.Fatalf("n=%d: ExactRound did %d, want %d", n, got, want)
			}
			for i := range want {
				if y[i] != 1.75 {
					t.Fatalf("n=%d: coordinate %d sums to %v, want 1.75", n, i, y[i])
				}
			}
		}
	})
}
