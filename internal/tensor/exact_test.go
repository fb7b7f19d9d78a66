package tensor

import (
	"math"
	"testing"
)

// The exact-sum kernels are held to the accumulator's scalar code in
// internal/emu/shard, on its whole state; these tests pin what the kernels
// promise on their own: whole blocks only, a block with a residual left
// unstored, and a zero sum rounded to +0.

// TestExactKernelsStopAtResidual plants a residual that lo cannot absorb in
// block 2 of 4: ExactAdd and ExactMerge must store blocks 0 and 1, leave
// block 2 and everything after it as it was, and say so.
func TestExactKernelsStopAtResidual(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		const n = 4*ExactBlock + 3
		want := 0
		if simdGEMM {
			want = 2 * ExactBlock
		}
		fill := func(v float64) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = v
			}
			return s
		}
		hi, lo, x := fill(1), fill(0x1p-60), fill(0.5)
		hi[2*ExactBlock+5], lo[2*ExactBlock+5] = 0x1p1000, 1
		x[2*ExactBlock+5] = 0x1p-100 // which neither 2^1000 nor 1 absorbs
		if got := ExactAdd(hi, lo, x, 1); got != want {
			t.Fatalf("ExactAdd stored %d coordinates, want %d", got, want)
		}
		for i := range hi {
			wantHi, wantLo := 1.5, 0x1p-60
			if i >= want {
				wantHi, wantLo = 1, 0x1p-60
				if i == 2*ExactBlock+5 {
					wantHi, wantLo = 0x1p1000, 1
				}
			}
			if hi[i] != wantHi || lo[i] != wantLo {
				t.Fatalf("ExactAdd: coordinate %d = (%v, %v), want (%v, %v)", i, hi[i], lo[i], wantHi, wantLo)
			}
		}

		hi, lo, bhi, blo := fill(1), fill(0), fill(2), fill(0x1p-60)
		blo[2*ExactBlock+1] = 0x1p-200 // lo + blo cannot hold both
		lo[2*ExactBlock+1] = 0x1p-60
		if got := ExactMerge(hi, lo, bhi, blo); got != want {
			t.Fatalf("ExactMerge stored %d coordinates, want %d", got, want)
		}
		for i := range hi {
			if stored := hi[i] == 3; stored != (i < want) {
				t.Fatalf("ExactMerge: coordinate %d stored %v, want %v", i, stored, i < want)
			}
		}
	})
}

// TestExactRoundDropsZeroSign: a zero sum is +0 whatever the zeros' signs,
// a NaN stays NaN, and the tail is the caller's.
func TestExactRoundDropsZeroSign(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		hi := []float64{negZero, negZero, 0, 1, math.NaN(), math.Inf(1), -2, 0x1p-1074, negZero}
		lo := []float64{negZero, 0, negZero, 0x1p-53, 0, 0, 0x1p-60, 0, negZero}
		dst := make([]float64, len(hi))
		dst[len(dst)-1] = 7
		done := ExactRound(dst, hi, lo)
		if want := map[bool]int{true: ExactBlock, false: 0}[simdGEMM]; done != want {
			t.Fatalf("ExactRound wrote %d coordinates, want %d", done, want)
		}
		for i := range done {
			want := hi[i] + lo[i]
			if math.Float64bits(want)<<1 == 0 {
				want = 0
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Fatalf("coordinate %d: %v + %v = %x, want %x", i, hi[i], lo[i], math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
		if dst[len(dst)-1] != 7 {
			t.Fatal("ExactRound wrote the tail")
		}
	})
}
