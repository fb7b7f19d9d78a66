package compress

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"cmfl/internal/xrand"
)

// fullSortSelect is the reference TopK selection, written independently of
// the production keys: sort every index under the total order (|v|
// descending with NaN as +Inf, then index ascending), keep the first k,
// return them ascending. It was the production selector before quickselect
// and is the oracle every faster selector is held to.
func fullSortSelect(u []float64, k int) []uint32 {
	mag := func(i uint32) float64 {
		if math.IsNaN(u[i]) {
			return math.Inf(1)
		}
		return math.Abs(u[i])
	}
	idx := make([]uint32, len(u))
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if ma, mb := mag(idx[a]), mag(idx[b]); ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	idx = idx[:min(k, len(u))]
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// checkSelectExact holds SelectInto to the oracle's exact index set and to
// the Selector contract (values are the update's own, bit for bit).
func checkSelectExact(t *testing.T, u []float64, k int) {
	t.Helper()
	want := fullSortSelect(u, k)
	idx, vals, err := (TopK{K: k}).SelectInto(nil, nil, u)
	if err != nil {
		t.Fatalf("SelectInto(k=%d): %v", k, err)
	}
	if len(idx) != len(want) || len(vals) != len(want) {
		t.Fatalf("k=%d over %d coords: kept %d indices and %d values, want %d", k, len(u), len(idx), len(vals), len(want))
	}
	for j := range want {
		if idx[j] != want[j] {
			t.Fatalf("k=%d over %v: kept %v, want %v", k, u, idx, want)
		}
		if math.Float64bits(vals[j]) != math.Float64bits(u[idx[j]]) {
			t.Fatalf("k=%d: vals[%d] = %v, want u[%d] = %v", k, j, vals[j], idx[j], u[idx[j]])
		}
	}
}

// TestTopKSelectExactSet pins the kept set, ties included, on the inputs
// where a selector that is only right "up to the threshold" goes wrong.
func TestTopKSelectExactSet(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		u    []float64
		ks   []int
	}{
		{"all-equal", []float64{2, -2, 2, 2, -2, 2, 2}, []int{1, 3, 6, 7, 9}},
		{"all-zero", make([]float64, 40), []int{1, 7, 39, 40}},
		{"signed-zeros", []float64{0, negZero, 0, negZero, negZero}, []int{1, 2, 4}},
		{"fewer-nonzeros-than-k", []float64{0, 0, 3, 0, -1, 0, 0, 0}, []int{1, 2, 3, 5}},
		{"non-finite", []float64{1, nan, -inf, 5, inf, nan, -1e308, 0}, []int{1, 2, 3, 4, 5, 8}},
		{"k=1", []float64{-4, 3, 4, 1}, []int{1}},
		{"k>=n", []float64{5, 4, 3}, []int{3, 4, 100}},
		{"subnormals", []float64{5e-324, -1e-310, 0, 2e-320, 1e-310}, []int{1, 2, 3}},
		{"one-bucket", []float64{1.01, 1.02, 1.03, 1.005, 1.04, 1.02}, []int{1, 2, 3, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range tc.ks {
				checkSelectExact(t, tc.u, k)
			}
		})
	}
	// Random vectors with forced magnitude ties and exact zeros.
	rng := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(400)
		u := rng.NormVec(dim, 0, 1)
		for i := range u {
			switch r := rng.Float64(); {
			case r < 0.2:
				u[i] = math.Copysign(1.5, u[i])
			case r < 0.3:
				u[i] = 0
			}
		}
		checkSelectExact(t, u, 1+rng.Intn(dim+2))
	}
}

// TestTopKSelectMatchesFullSortThreshold is the scale check: at 5000
// coordinates the kept set is the oracle's.
func TestTopKSelectMatchesFullSortThreshold(t *testing.T) {
	checkSelectExact(t, xrand.New(4).NormVec(5000, 0, 1), 250)
}

// fuzzPalette is what FuzzTopKSelect's coarse mode draws from: few distinct
// magnitudes, so ties at the cut are the rule, plus every special value.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 2.5000000000000004,
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310, math.MaxFloat64,
}

// FuzzTopKSelect holds the histogram selection to the full-sort oracle on
// arbitrary bit patterns (fine mode: 8 input bytes per coordinate) and on
// tie-heavy vectors (coarse mode: one byte picks from fuzzPalette).
func FuzzTopKSelect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(4), true)
	f.Add([]byte{2, 2, 2, 2, 2, 2}, uint16(3), true)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-3)), 0x7FF8000000000001), uint16(1), false)
	f.Fuzz(func(t *testing.T, data []byte, k uint16, coarse bool) {
		var u []float64
		if coarse {
			for _, b := range data {
				u = append(u, fuzzPalette[int(b)%len(fuzzPalette)])
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				u = append(u, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		}
		if k == 0 {
			return
		}
		checkSelectExact(t, u, int(k))
	})
}
