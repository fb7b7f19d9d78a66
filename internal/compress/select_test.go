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

// sweep is what one candidate sweep at a sampled floor lets through: the
// coordinates whose magnitude key reaches the floor.
type sweep struct {
	floor uint64
	n     int
}

// sweptCandidates is the sweep at the floor sampled with the given margin:
// 1 for the first sweep, 2 for the retry.
func sweptCandidates(u []float64, k, margin int) sweep {
	var sample []float64
	s := sweep{}
	s.floor, _ = sampledFloor(&sample, u, min(k, len(u)), margin)
	for _, v := range u {
		if math.Float64bits(v)&^(1<<63) >= s.floor {
			s.n++
		}
	}
	return s
}

// TestTopKSelectSampledFloor holds the sampled path to the oracle on
// updates long enough to be sampled, one case per way it can go: the floor
// lets k or more through; spikes on a few dozen sample points set it so
// high that too few pass, and the retry's lower floor lets k through, still
// far fewer than n; spikes on every sample point set both floors so high
// that the sweep is retried from 0; a dense block of large
// values between sample points floods the cut with candidates; ties at the
// cut; non-finite values; an all-zero update; k = n and k > n. Each case
// first checks that it takes the path it is named for.
func TestTopKSelectSampledFloor(t *testing.T) {
	const n = 16384
	rng := xrand.New(29)
	gauss := func(n int) []float64 { return rng.NormVec(n, 0, 1) }
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)

	sparse := gauss(n)
	for j := 0; j < 40; j++ {
		sparse[samplePoint(25*j, n)] = math.Copysign(100+float64(j), sparse[j])
	}
	type pathCheck func(k int, first, retry sweep) bool
	admits := func(k int, first, _ sweep) bool { return first.floor > 0 && first.n >= k }
	cases := []struct {
		name string
		u    []float64
		ks   []int
		path pathCheck
	}{
		{"floor-admits-k", gauss(n), []int{1, 10, 100, 1000, 2500}, admits},
		{"floor-admits-k-wide", gauss(102538), []int{1000}, admits},
		{"stride-spikes-retry", func() []float64 {
			u := gauss(n)
			for j := 0; j < sampleSize; j++ {
				u[samplePoint(j, n)] = math.Copysign(100+float64(j%3), u[j])
			}
			return u
		}(), []int{1100, 2000, 5000}, func(k int, first, retry sweep) bool { return first.floor > 0 && retry.n < k }},
		{"sparse-spikes-lower-floor", sparse, []int{1000}, func(k int, first, retry sweep) bool {
			// The index scratch SelectInto grows shows which floor it swept at.
			idx, _, _ := TopK{K: k}.SelectInto(nil, nil, sparse)
			return first.n < k && retry.floor > 0 && k <= retry.n && retry.n < n/8 && cap(idx) < n/4
		}},
		{"dense-block-between-samples", func() []float64 {
			u := gauss(2 * n)
			for i := 100 * 32; i < 164*32; i++ { // 64 sample gaps of 31
				if i%32 != 0 {
					u[i] = math.Copysign(50+float64(i%7), u[i])
				}
			}
			return u
		}(), []int{1, 100, 1000, 1984, 2500}, func(k int, first, _ sweep) bool { return first.floor > 0 && first.n >= 1984 }},
		{"ties-at-the-cut", func() []float64 {
			u := gauss(n)
			for i := range u {
				if i%10 < 3 {
					u[i] = math.Copysign(1.5, u[i])
				}
			}
			return u
		}(), []int{1200, 2000, 3000}, admits},
		{"non-finite", func() []float64 {
			u := gauss(n)
			specials := []float64{nan, -nan, math.Float64frombits(0x7FF0000000000001), inf, -inf, math.MaxFloat64}
			for i := 0; i < 600; i++ {
				u[(i*7919)%n] = specials[i%len(specials)]
			}
			for j := 0; j < sampleSize; j += 97 {
				u[samplePoint(j, n)] = nan
			}
			return u
		}(), []int{1, 50, 500, 600, 700, 3000}, func(k int, first, _ sweep) bool { return first.n >= k }},
		{"all-zero", func() []float64 {
			u := make([]float64, n)
			for i := 0; i < n; i += 3 {
				u[i] = negZero
			}
			return u
		}(), []int{1, 100, n - 1}, func(k int, first, _ sweep) bool { return first.floor == 0 && first.n == n }},
		{"k>=n", gauss(n), []int{n, n + 1, 65535}, func(k int, first, _ sweep) bool { return first.floor == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range tc.ks {
				first, retry := sweptCandidates(tc.u, k, 1), sweptCandidates(tc.u, k, 2)
				if !tc.path(k, first, retry) {
					t.Fatalf("k=%d: floors %#x and %#x let %d and %d of %d through: not the path under test",
						k, first.floor, retry.floor, first.n, retry.n, len(tc.u))
				}
				checkSelectExact(t, tc.u, k)
			}
		})
	}
}

// fuzzPalette is what FuzzTopKSelect's coarse mode draws from: few distinct
// magnitudes, so ties at the cut are the rule, plus every special value.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 2.5000000000000004,
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310, math.MaxFloat64,
}

// FuzzTopKSelect holds the selection to the full-sort oracle on arbitrary
// bit patterns (fine mode: 8 input bytes per coordinate) and on tie-heavy
// vectors (coarse mode: one byte picks from fuzzPalette). Tiled, the vector
// repeats until it has at least 16384 coordinates, long enough for the
// sampled floor.
func FuzzTopKSelect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(4), true, false)
	f.Add([]byte{2, 2, 2, 2, 2, 2}, uint16(3), true, false)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-3)), 0x7FF8000000000001), uint16(1), false, false)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 4, 4, 7}, uint16(3000), true, true)
	f.Fuzz(func(t *testing.T, data []byte, k uint16, coarse, tiled bool) {
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
		if tiled && len(u) > 0 {
			for len(u) < 16384 {
				u = append(u, u...)
			}
		}
		checkSelectExact(t, u, int(k))
	})
}
