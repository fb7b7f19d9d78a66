package tensor

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guardedPage maps two pages and revokes access to the second: a slice that
// ends at the boundary faults the process on any read or write past its end.
func guardedPage(t *testing.T) []byte {
	return guardedBytes(t, syscall.Getpagesize())
}

// guardedBytes returns n bytes that end flush against an inaccessible page.
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap in a test
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[size-n : size]
}

// TestSignKernelsStayInBounds runs every tail length with all operands
// ending flush against an inaccessible page: the masked tail of a kernel may
// not touch a lane beyond the slice, not even to read it, and the magnitude
// sweep may store only within dst's capacity.
func TestSignKernelsStayInBounds(t *testing.T) {
	floats := func(n int) []float64 {
		page := guardedPage(t)
		return unsafe.Slice((*float64)(unsafe.Add(unsafe.Pointer(&page[0]), len(page)-8*n)), n)
	}
	bytes := func(n int) []int8 {
		page := guardedPage(t)
		return unsafe.Slice((*int8)(unsafe.Pointer(&page[len(page)-n])), n)
	}
	indices := func(n int) []uint32 {
		page := guardedPage(t)
		return unsafe.Slice((*uint32)(unsafe.Add(unsafe.Pointer(&page[0]), len(page)-4*n)), n)[:0]
	}
	withBothPaths(t, func(t *testing.T) {
		for n := 0; n <= 31; n++ {
			v := floats(n)
			for i := range v {
				v[i] = float64(i%5 - 2)
			}
			for _, floor := range []uint64{0, math.Float64bits(1)} {
				want := keysAtLeast(v, floor)
				got, ok := IndicesAtLeast(indices(len(want)+16), v, floor)
				if !ok || len(got) != len(want) {
					t.Fatalf("n=%d floor %#x: %d indices (ok %v), want %d", n, floor, len(got), ok, len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d floor %#x: index %d is %d, want %d", n, floor, j, got[j], want[j])
					}
				}
			}
		}
		for n := 1; n <= 17; n++ {
			v, prev, signs := floats(n), floats(n), bytes(n)
			for i := range v {
				v[i], prev[i] = float64(i%3-1), 0.5
			}
			Signs(signs, v)
			if got := SignMatches(v, signs); got != n {
				t.Fatalf("n=%d: %d of a vector's own signs match", n, got)
			}
			if !SubSigns(signs, prev, v) {
				t.Fatalf("n=%d: non-zero difference unseen", n)
			}
		}
	})
}
