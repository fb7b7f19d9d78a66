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
// indices and magnitudes, Chain's intermediate selections, a dense
// decode's sparse view).

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

// magKey returns v's magnitude as an integer that orders exactly as |v|
// does: the float bits with the sign cleared, NaN clamped to +Inf's bits so
// the order stays total (a NaN coordinate ranks as largest and is
// transmitted verbatim — TopK passes damage through, it never launders it).
func magKey(v float64) uint64 { return min(math.Float64bits(v)&^(1<<63), 0x7FF<<52) }

// magnitude is magKey as the float it stands for: |v|, NaN as +Inf. The
// selection keeps these in float64 scratch and compares their bits, which
// order as the magnitudes do.
func magnitude(v float64) float64 { return math.Float64frombits(magKey(v)) }

// nthLargest returns the key of the k-th largest (1 <= k <= len(s)) of the
// magnitudes in s and how many of them are larger, reordering s. Each round
// moves the live range's keys above a median-of-three pivot to its front
// and, when rank k lies past them, the keys equal to the pivot next, one
// sweep each; a key's side is a coin flip to a branch predictor, so the
// sweeps count it by the sign of a difference instead of branching on it.
// The round keeps only the part that holds rank k. Keys equal to the pivot
// end the search, so an all-equal input (an all-zero delta) takes one
// round, and a random one expected O(len(s)).
func nthLargest(s []float64, k int) (kth uint64, above int) {
	// Every key in s[:lo] is above every key in s[lo:hi], and those above
	// every key in s[hi:]. Keys are below 1<<63, so pivot−key wraps to a
	// set top bit exactly when key > pivot, and pivot−1−key when key >=
	// pivot.
	lo, hi := 0, len(s)
	for {
		a, b, c := math.Float64bits(s[lo]), math.Float64bits(s[lo+(hi-lo)/2]), math.Float64bits(s[hi-1])
		pivot := max(min(a, b), min(max(a, b), c))
		gt := lo
		for i := lo; i < hi; i++ {
			x := s[i]
			s[i], s[gt] = s[gt], x
			gt += int((pivot - math.Float64bits(x)) >> 63)
		}
		if k <= gt {
			hi = gt
			continue
		}
		eq := gt // s[gt:hi] are at most the pivot: find those equal to it
		for i := gt; i < hi; i++ {
			x := s[i]
			s[i], s[eq] = s[eq], x
			eq += int((pivot - 1 - math.Float64bits(x)) >> 63)
		}
		if k <= eq {
			return pivot, gt
		}
		lo = eq
	}
}
