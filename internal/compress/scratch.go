package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// This file holds the scratch-management primitives behind the package's
// zero-allocation contract. The grow* helpers implement overwrite reuse:
// when the caller's buffer capacity suffices they re-slice it (free);
// otherwise they allocate once with headroom, an amortized grow-only cost
// that the //cmfl:lint-ignore markers justify to cmfl-vet so it does not
// re-surface at every //cmfl:hotpath caller. The sync.Pools cover scratch
// the Codec interface cannot route through the caller (TopK's candidate
// indices, Chain's intermediate selections, a dense decode's sparse view).

// growBytes returns a length-n byte slice reusing dst's capacity. Contents
// are unspecified — callers overwrite every element.
func growBytes(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	//cmfl:lint-ignore hotpathalloc amortized grow-only resize; steady state reuses caller capacity
	return make([]byte, n)
}

// growFloats is growBytes for float64 scratch.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	//cmfl:lint-ignore hotpathalloc amortized grow-only resize; steady state reuses caller capacity
	return make([]float64, n)
}

// growU32 is growBytes for uint32 scratch.
func growU32(dst []uint32, n int) []uint32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	//cmfl:lint-ignore hotpathalloc amortized grow-only resize; steady state reuses caller capacity
	return make([]uint32, n)
}

// Pools hold pointers to slices (not slices) so Get/Put stay off the heap
// in steady state; the New closures live at package level because a func
// literal inside a hot body would itself be an allocation.
var (
	u32Scratch  = sync.Pool{New: newU32Scratch}
	f64Scratch  = sync.Pool{New: newF64Scratch}
	byteScratch = sync.Pool{New: newByteScratch}
)

func newU32Scratch() any { return new([]uint32) }

func newF64Scratch() any { return new([]float64) }

func newByteScratch() any { return new([]byte) }

// isFinite reports whether v is neither NaN nor ±Inf: v-v is exactly 0 for
// any finite v and NaN for the rest.
func isFinite(v float64) bool { return !math.IsNaN(v - v) }

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// decodeIndices reads n little-endian uint32 coordinates spaced stride bytes
// apart in b into idx, enforcing the sparse-view contract: strictly
// ascending, each below dim. b must hold n strides.
func decodeIndices(idx []uint32, b []byte, n, stride, dim int) ([]uint32, error) {
	idx = growU32(idx, n)
	prev := -1
	for j := range idx {
		i := int(getU32(b[j*stride:]))
		if i <= prev || i >= dim {
			return idx, fmt.Errorf("%w: index %d after %d in dim %d", ErrCorruptPayload, i, prev, dim)
		}
		idx[j], prev = uint32(i), i
	}
	return idx, nil
}

// densify finishes a sparse codec's DecodeInto from its DecodeSparseInto over
// pooled scratch: pool the scratch again, scatter a valid view over zeros.
func densify(dst []float64, dim int, ip *[]uint32, vp *[]float64, idx []uint32, vals []float64, err error) ([]float64, error) {
	if err == nil {
		dst = growFloats(dst, dim)
		clear(dst)
		for j, i := range idx {
			dst[i] = vals[j]
		}
	}
	*ip, *vp = idx, vals
	u32Scratch.Put(ip)
	f64Scratch.Put(vp)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// The selection histogram buckets a magnitude by its exponent and top two
// mantissa bits: 8192 counters (32 KB), ≈1.5% of a bell-shaped update in
// the bucket at its 99th percentile.
const (
	histShift   = 50
	histBuckets = 1 << (63 - histShift)
)

// magKey returns v's magnitude as an integer that orders exactly as |v|
// does: the float bits with the sign cleared, NaN clamped to +Inf's bits so
// the order stays total (a NaN coordinate ranks as largest and is
// transmitted verbatim — TopK passes damage through, it never launders it).
func magKey(v float64) uint64 { return min(math.Float64bits(v)&^(1<<63), 0x7FF<<52) }

// ranksBefore reports whether coordinate a precedes coordinate b in the
// selection order.
func ranksBefore(vals []float64, a, b uint32) bool {
	ka, kb := magKey(vals[a]), magKey(vals[b])
	return ka > kb || (ka == kb && a < b)
}

// quickselectRank returns the k-th ranked (k >= 1) coordinate of idx,
// reordering idx, in expected O(len(idx)): Hoare partition with
// median-of-three pivoting. The order is total, so even an all-equal input
// (an all-zero delta) partitions by index and stays linear.
func quickselectRank(idx []uint32, vals []float64, k int) uint32 {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		p := hoarePartition(idx, vals, lo, hi)
		// Hoare: everything in [lo, p] ranks before everything in [p+1, hi].
		left := p - lo + 1
		if k <= left {
			hi = p
		} else {
			k -= left
			lo = p + 1
		}
	}
	return idx[lo]
}

// hoarePartition partitions idx[lo..hi] around a median-of-three pivot,
// returning j such that every element of idx[lo..j] ranks at or before
// every element of idx[j+1..hi].
func hoarePartition(idx []uint32, vals []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	a, b, c := idx[lo], idx[mid], idx[hi]
	// Move the median of (a, b, c) to lo to serve as the pivot.
	if ranksBefore(vals, a, b) != ranksBefore(vals, a, c) { // a is the median
		// already at lo
	} else if ranksBefore(vals, b, a) != ranksBefore(vals, b, c) { // b is the median
		idx[lo], idx[mid] = idx[mid], idx[lo]
	} else {
		idx[lo], idx[hi] = idx[hi], idx[lo]
	}
	pivot := idx[lo]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if !ranksBefore(vals, idx[i], pivot) {
				break
			}
		}
		for {
			j--
			if !ranksBefore(vals, pivot, idx[j]) {
				break
			}
		}
		if i >= j {
			return j
		}
		idx[i], idx[j] = idx[j], idx[i]
	}
}
