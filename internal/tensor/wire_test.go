package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// wireWords returns n float64 values that exercise every class of finite
// word (both zeros, subnormals, the extremes) around ordinary ones.
func wireWords(n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, 0x1p-1022}
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%13)*0.37 - 2
		if i%11 == 3 {
			v[i] = special[i%len(special)]
		}
	}
	return v
}

// checkWireKernels holds both kernels to encoding/binary on v: what they
// store is the reference bit for bit, they take whole blocks, and the decode
// stops exactly before the first block that holds a non-finite word.
func checkWireKernels(t *testing.T, v []float64) {
	t.Helper()
	n := len(v)
	want := make([]byte, 8*n)
	for i, x := range v {
		binary.BigEndian.PutUint64(want[8*i:], math.Float64bits(x))
	}

	enc := make([]byte, 8*n)
	done := EncodeBE(enc, v)
	wantDone := 0
	if simdGEMM {
		wantDone = n / WireBlock * WireBlock
	}
	if done != wantDone {
		t.Fatalf("n=%d: EncodeBE did %d words, want %d", n, done, wantDone)
	}
	if string(enc[:8*done]) != string(want[:8*done]) {
		t.Fatalf("n=%d: EncodeBE bytes differ from encoding/binary", n)
	}
	for _, b := range enc[8*done:] {
		if b != 0 {
			t.Fatalf("n=%d: EncodeBE wrote past the %d words it reported", n, done)
		}
	}

	dec := make([]float64, n)
	const sentinel = 0x5A5A5A5A5A5A5A5A
	for i := range dec {
		dec[i] = math.Float64frombits(sentinel)
	}
	done = DecodeBE(dec, want)
	wantDone = 0
	if simdGEMM {
		wantDone = n / WireBlock * WireBlock
		for i, x := range v[:wantDone] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				wantDone = i / WireBlock * WireBlock
				break
			}
		}
	}
	if done != wantDone {
		t.Fatalf("n=%d: DecodeBE did %d words, want %d", n, done, wantDone)
	}
	for i := range dec {
		got := math.Float64bits(dec[i])
		switch {
		case i < done && got != math.Float64bits(v[i]):
			t.Fatalf("n=%d: DecodeBE word %d = %#x, want %#x", n, i, got, math.Float64bits(v[i]))
		case i >= done && got != sentinel:
			t.Fatalf("n=%d: DecodeBE stored word %d past the %d it reported", n, i, done)
		}
	}
}

// TestWireKernelsMatchEncodingBinary runs both kernels on every length up
// to two blocks and a bit, on 68 and on a wide model's 102,538 words, with a
// non-finite word (NaN, ±Inf, a NaN with a payload) planted at each lane of
// a block and in the tail.
func TestWireKernelsMatchEncodingBinary(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7FF0000000C0FFEE), math.Float64frombits(0xFFF8000000000001)}
	lengths := []int{68, 102_538}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	withBothPaths(t, func(t *testing.T) {
		for _, n := range lengths {
			v := wireWords(n)
			checkWireKernels(t, v)
			// Every lane of the second-to-last whole block, and the tail.
			var at []int
			if blocks := n / WireBlock; blocks > 0 {
				base := (max(blocks-2, 0)) * WireBlock
				for lane := range WireBlock {
					at = append(at, base+lane)
				}
			}
			for i := n / WireBlock * WireBlock; i < n; i++ {
				at = append(at, i)
			}
			for k, i := range at {
				saved := v[i]
				v[i] = bad[k%len(bad)]
				checkWireKernels(t, v)
				v[i] = saved
			}
		}
	})
}
