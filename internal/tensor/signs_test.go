package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// scalarSign is the branchy definition the kernels must reproduce: it is
// core.Sign, restated here because tensor may not import core.
func scalarSign(x float64) int8 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// signEdgeValues are the inputs a sign kernel can get wrong: both zeros,
// NaNs of either sign bit, infinities, the denormal and normal extremes.
var signEdgeValues = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, -0.5,
}

// signVector draws n values, about a third of them from signEdgeValues.
func signVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = signEdgeValues[rng.Intn(len(signEdgeValues))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// withBothPaths runs f on the portable loops and, where the CPU has them, on
// the AVX-512 kernels.
func withBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := simdGEMM
	defer func() { simdGEMM = saved }()
	simdGEMM = false
	t.Run("portable", f)
	if saved {
		simdGEMM = true
		t.Run("avx512", f)
	}
}

// checkSignKernels holds all three kernels to the scalar definition on one
// input. v and prev are not modified; the outputs are carved out of larger
// buffers at odd offsets, so the kernels see unaligned pointers and any write
// outside [0, n) lands on a sentinel.
func checkSignKernels(t *testing.T, v, prev []float64, signs []int8) {
	t.Helper()
	n := len(v)
	const pad, sentinel = 3, 0x55

	dstBuf := make([]int8, n+2*pad)
	for i := range dstBuf {
		dstBuf[i] = sentinel
	}
	dst := dstBuf[pad : pad+n]
	Signs(dst, v)
	want := 0
	for i, x := range v {
		if dst[i] != scalarSign(x) {
			t.Fatalf("n=%d Signs[%d] = %d for %v (bits %#x), want %d", n, i, dst[i], x, math.Float64bits(x), scalarSign(x))
		}
		if scalarSign(x) == signs[i] {
			want++
		}
	}
	if got := SignMatches(v, signs); got != want {
		t.Fatalf("n=%d SignMatches = %d, want %d", n, got, want)
	}

	diffBuf := make([]float64, n+2)
	diffBuf[0], diffBuf[n+1] = sentinel, sentinel
	diff := diffBuf[1 : 1+n]
	copy(diff, prev)
	for i := range dstBuf {
		dstBuf[i] = sentinel
	}
	nonZero := SubSigns(dst, diff, v)
	wantNonZero := false
	for i := range v {
		d := v[i] - prev[i]
		if math.Float64bits(diff[i]) != math.Float64bits(d) {
			t.Fatalf("n=%d SubSigns diff[%d] = %v, want %v", n, i, diff[i], d)
		}
		if dst[i] != scalarSign(d) {
			t.Fatalf("n=%d SubSigns signs[%d] = %d for %v, want %d", n, i, dst[i], d, scalarSign(d))
		}
		if d != 0 {
			wantNonZero = true
		}
	}
	if nonZero != wantNonZero {
		t.Fatalf("n=%d SubSigns non-zero = %v, want %v", n, nonZero, wantNonZero)
	}
	for i := 0; i < pad; i++ {
		if dstBuf[i] != sentinel || dstBuf[pad+n+i] != sentinel {
			t.Fatalf("n=%d sign bytes written outside the slice", n)
		}
	}
	if diffBuf[0] != sentinel || diffBuf[n+1] != sentinel {
		t.Fatalf("n=%d SubSigns wrote outside the slice", n)
	}
}

// TestSignKernelsMatchScalar is the differential table: every length from 0
// to 130 (each mask tail, with and without full steps before it) plus the
// wide-model length, on edge-laden inputs at unaligned offsets.
func TestSignKernelsMatchScalar(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		lengths := []int{102538}
		for n := 0; n <= 130; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			v := signVector(rng, n+1)[1:]
			prev := signVector(rng, n+1)[1:]
			signs := make([]int8, n+3)[3:]
			for i := range signs {
				signs[i] = int8(rng.Intn(3) - 1)
			}
			if n > 4 {
				signs[n/2] = 2 // not a sign: must match nothing
				prev[n/3] = v[n/3]
			}
			checkSignKernels(t, v, prev, signs)
		}
	})
}

// TestSubSignsZeroDifference pins the "nothing changed" answer: equal
// vectors, and differences that are all −0 or +0, report false.
func TestSubSignsZeroDifference(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		for _, n := range []int{1, 7, 8, 9, 68, 1000} {
			cur := make([]float64, n)
			prev := make([]float64, n)
			for i := range cur {
				cur[i] = float64(i) - 3
				prev[i] = cur[i]
			}
			cur[0], prev[0] = negZero, 0 // −0 − 0 = −0
			dst := make([]int8, n)
			if SubSigns(dst, prev, cur) {
				t.Fatalf("n=%d: equal vectors reported a non-zero difference", n)
			}
			if math.Float64bits(prev[0]) != math.Float64bits(negZero) {
				t.Fatalf("n=%d: −0 difference stored as %#x", n, math.Float64bits(prev[0]))
			}
			prev[n-1], cur[n-1] = 0, math.SmallestNonzeroFloat64
			if !SubSigns(dst, prev, cur) {
				t.Fatalf("n=%d: a denormal difference in the last lane went unseen", n)
			}
		}
	})
}

func TestSignKernelsLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Signs":       func() { Signs(make([]int8, 2), make([]float64, 3)) },
		"SignMatches": func() { SignMatches(make([]float64, 3), make([]int8, 2)) },
		"SubSigns":    func() { SubSigns(make([]int8, 3), make([]float64, 3), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lengths", name)
				}
			}()
			f()
		}()
	}
}

// keysAtLeast is IndicesAtLeast's definition: the ascending indices whose
// bits with the sign cleared are at least floor.
func keysAtLeast(v []float64, floor uint64) []uint32 {
	var want []uint32
	for i, x := range v {
		if math.Float64bits(x)&^(1<<63) >= floor {
			want = append(want, uint32(i))
		}
	}
	return want
}

// checkIndicesAtLeast holds IndicesAtLeast to keysAtLeast at every floor in
// floors. dst is carved out of a larger buffer, so a store past its
// capacity lands on a sentinel. With exactly 16 entries of slack the sweep
// must fit; with 15 it must say it does not.
func checkIndicesAtLeast(t *testing.T, v []float64, floors []uint64) {
	t.Helper()
	const sentinel = 0xDEADBEEF
	for _, floor := range floors {
		want := keysAtLeast(v, floor)
		for _, slack := range []int{16, 15, 40} {
			c := len(want) + slack
			buf := make([]uint32, c+8)
			for i := range buf {
				buf[i] = sentinel
			}
			got, ok := IndicesAtLeast(buf[:0:c], v, floor)
			for _, x := range buf[c:] {
				if x != sentinel {
					t.Fatalf("n=%d floor %#x: stored past dst's capacity", len(v), floor)
				}
			}
			if ok != (slack >= 16) {
				t.Fatalf("n=%d floor %#x: ok = %v with %d indices in capacity %d", len(v), floor, ok, len(want), c)
			}
			if !ok {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d floor %#x: %d indices, want %d", len(v), floor, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("n=%d floor %#x: index %d is %d, want %d", len(v), floor, j, got[j], want[j])
				}
			}
		}
	}
}

// atLeastFloors are the floors each input is swept at: everything, keys
// that sit exactly on coordinates of v (−0's and a NaN's among them when v
// has them), a subnormal's, +Inf's, and past every key.
func atLeastFloors(v []float64) []uint64 {
	floors := []uint64{0, 1, math.Float64bits(math.Inf(1)), 0x7FF0000000000001, 1 << 63, math.MaxUint64}
	for i := 0; i < len(v); i += 1 + len(v)/5 {
		floors = append(floors, math.Float64bits(v[i])&^(1<<63))
	}
	return floors
}

// TestIndicesAtLeastMatchesLoop is the differential table of the magnitude
// sweep: every length from 0 to 130 (each tail, with and without whole
// blocks before it) plus the wide-model length, on edge-laden inputs at
// unaligned offsets, at floors on and between the keys.
func TestIndicesAtLeastMatchesLoop(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		lengths := []int{102538}
		for n := 0; n <= 130; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			v := signVector(rng, n+1)[1:]
			checkIndicesAtLeast(t, v, atLeastFloors(v))
		}
	})
}

// FuzzSignKernels feeds raw float bit patterns and sign bytes to all three
// sign kernels and to the magnitude sweep on both paths. Every 17 input
// bytes make one coordinate: eight of v, eight of prev, one sign byte; the
// sweep runs over v at atLeastFloors(v) and at the bits of each of the
// first prev values.
func FuzzSignKernels(f *testing.F) {
	seed := make([]byte, 0, 17*len(signEdgeValues))
	for i, x := range signEdgeValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(signEdgeValues[(i+5)%len(signEdgeValues)]))
		seed = append(seed, byte(i%4)-1)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 17
		v := make([]float64, n)
		prev := make([]float64, n)
		signs := make([]int8, n)
		for i := range v {
			rec := data[i*17:]
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec))
			prev[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
			signs[i] = int8(rec[16])
		}
		floors := atLeastFloors(v)
		for _, p := range prev[:min(len(prev), 4)] {
			floors = append(floors, math.Float64bits(p))
		}
		withBothPaths(t, func(t *testing.T) {
			checkSignKernels(t, v, prev, signs)
			checkIndicesAtLeast(t, v, floors)
		})
	})
}
