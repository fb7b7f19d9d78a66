package tensor

import (
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

// TestSignKernelsStayInBounds runs every tail length with all three operands
// ending flush against an inaccessible page: the masked tail of a kernel may
// not touch a lane beyond the slice, not even to read it.
func TestSignKernelsStayInBounds(t *testing.T) {
	floats := func(n int) []float64 {
		page := guardedPage(t)
		return unsafe.Slice((*float64)(unsafe.Pointer(&page[len(page)-8*n])), n)
	}
	bytes := func(n int) []int8 {
		page := guardedPage(t)
		return unsafe.Slice((*int8)(unsafe.Pointer(&page[len(page)-n])), n)
	}
	withBothPaths(t, func(t *testing.T) {
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
