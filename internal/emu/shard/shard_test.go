package shard

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// refSum computes the correctly rounded sum of xs through math/big at 2200
// bits — wider than the whole float64 range, so every partial sum of any
// finite inputs is exact — as the oracle for the accumulator's arithmetic.
func refSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(2200)
	term := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		acc.Add(acc, term.SetFloat64(x))
	}
	out, _ := acc.Float64()
	return out
}

// testVectors draws n gradient-shaped vectors of the given dim: mixed signs
// and several magnitude decades, the regime where naive summation visibly
// loses associativity.
func testVectors(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		out[i] = v
	}
	return out
}

func TestRoundMatchesBigFloatReference(t *testing.T) {
	vecs := testVectors(37, 53, 1)
	acc := New(53)
	for _, v := range vecs {
		acc.Add(v)
	}
	got := acc.Round(nil)
	for j := range got {
		col := make([]float64, len(vecs))
		for i, v := range vecs {
			col[i] = v[j]
		}
		want := refSum(col)
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("coordinate %d: Round = %x, big.Float reference = %x", j, got[j], want)
		}
	}
}

func TestRoundHandlesCancellation(t *testing.T) {
	// Catastrophic cancellation plus a tiny survivor: naive summation
	// returns 0 or loses the survivor; the exact expansion keeps it.
	acc := New(1)
	inputs := []float64{1e16, 1e-3, -1e16, 1e-3}
	for _, x := range inputs {
		acc.Add([]float64{x})
	}
	got := acc.Round(nil)[0]
	if want := refSum(inputs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cancellation sum = %g (%x), want %g (%x)", got, got, want, want)
	}
}

// TestGroupingInvariance is the tree-determinism contract: summing the same
// vectors through 1, 3, or 8 intermediate accumulators merged in any order
// must round to identical bits.
func TestGroupingInvariance(t *testing.T) {
	const n, dim = 64, 101
	vecs := testVectors(n, dim, 2)

	flat := New(dim)
	for _, v := range vecs {
		flat.Add(v)
	}
	want := flat.Round(nil)

	for _, shards := range []int{1, 2, 3, 8, 63} {
		ranges := Split(n, shards)
		parts := make([]*Accumulator, shards)
		for i, r := range ranges {
			parts[i] = New(dim)
			for _, v := range vecs[r.Lo:r.Hi] {
				parts[i].Add(v)
			}
		}
		// Merge in reverse shard order on purpose: grouping AND merge
		// order must both be invisible.
		root := New(dim)
		for i := shards - 1; i >= 0; i-- {
			root.Merge(parts[i])
		}
		got := root.Round(nil)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("shards=%d coordinate %d: %x != flat %x", shards, j, got[j], want[j])
			}
		}
	}
}

// TestMaxTermsStaysFlat pins the memory model: MaxTerms is hi and lo plus
// the widest spill, and folding 64 gradient-scale clients spills nothing —
// per-shard memory is two floats a coordinate whatever the client count. A
// coordinate whose terms span more than two floats' bits does spill, and
// MaxTerms says by how much.
func TestMaxTermsStaysFlat(t *testing.T) {
	const dim = 101
	acc := New(dim)
	for _, v := range testVectors(64, dim, 3) {
		acc.Add(v)
	}
	if got := acc.MaxTerms(); got != 2 {
		t.Fatalf("MaxTerms = %d after 64 gradient-scale clients, want 2 (no spill)", got)
	}
	wide := []float64{0x1p200, 1, 0x1p-200, 0x1p-400}
	for _, x := range wide {
		v := make([]float64, dim)
		v[5] = x
		acc.Add(v)
	}
	if got := acc.MaxTerms(); got <= 2 || got > 2+len(wide) {
		t.Fatalf("MaxTerms = %d after a 600-bit-wide coordinate, want in (2, %d]", got, 2+len(wide))
	}
}

func TestResetReusesCapacityAndClears(t *testing.T) {
	acc := New(4)
	acc.Add([]float64{1, 2, 3, 4})
	acc.Reset(4)
	got := acc.Round(nil)
	for j, v := range got {
		if v != 0 {
			t.Fatalf("after Reset, coordinate %d = %g, want 0", j, v)
		}
	}
	acc.Reset(2)
	if acc.Dim() != 2 {
		t.Fatalf("Dim after Reset(2) = %d", acc.Dim())
	}
	acc.Add([]float64{5, 6})
	if got := acc.Round(nil); got[0] != 5 || got[1] != 6 {
		t.Fatalf("post-shrink Round = %v", got)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct{ n, k int }{{1, 1}, {3, 3}, {8, 3}, {64, 8}, {7, 2}, {100, 9}}
	for _, c := range cases {
		ranges := Split(c.n, c.k)
		if len(ranges) != c.k {
			t.Fatalf("Split(%d,%d): %d ranges", c.n, c.k, len(ranges))
		}
		lo, min, max := 0, c.n, 0
		for _, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("Split(%d,%d): range %v not contiguous from %d", c.n, c.k, r, lo)
			}
			if r.Len() <= 0 {
				t.Fatalf("Split(%d,%d): empty range %v", c.n, c.k, r)
			}
			if r.Len() < min {
				min = r.Len()
			}
			if r.Len() > max {
				max = r.Len()
			}
			lo = r.Hi
		}
		if lo != c.n {
			t.Fatalf("Split(%d,%d): covers [0,%d)", c.n, c.k, lo)
		}
		if max-min > 1 {
			t.Fatalf("Split(%d,%d): unbalanced sizes (min %d, max %d)", c.n, c.k, min, max)
		}
	}
}

func TestSplitPanicsOutOfRange(t *testing.T) {
	for _, c := range []struct{ n, k int }{{3, 0}, {3, 4}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%d,%d) did not panic", c.n, c.k)
				}
			}()
			Split(c.n, c.k)
		}()
	}
}

// benchSink keeps a benchmark's result alive: an unread result lets the
// compiler delete the loop that made it (benchmarks/README.md).
var benchSink float64

// BenchmarkShardMerge is the tree's root-side hot path: 8 shard
// accumulators, each having folded 8 clients of a 100k-dim model, merged
// and rounded. Nothing grows with use, so the first iteration already is
// steady state: 0 allocs/op.
func BenchmarkShardMerge(b *testing.B) {
	const shards, clientsPerShard, dim = 8, 8, 100_000
	vecs := testVectors(shards*clientsPerShard, dim, 4)
	parts := make([]*Accumulator, shards)
	for i := range parts {
		parts[i] = New(dim)
	}
	root := New(dim)
	dst := make([]float64, dim)

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, acc := range parts {
			acc.Reset(dim)
			for c := 0; c < clientsPerShard; c++ {
				acc.Add(vecs[i*clientsPerShard+c])
			}
		}
		root.Reset(dim)
		for _, acc := range parts {
			root.Merge(acc)
		}
		dst = root.Round(dst)
		benchSink += dst[n%dim]
	}
}

// BenchmarkShardAdd is the dense coordinate-add: one 102,538-dim update
// folded into an accumulator that already holds one (the round's first Add
// is a copy and would flatter the number). It rotates over 32 distinct
// vectors — 27 MB, so the sweep pays for memory as the server's does.
func BenchmarkShardAdd(b *testing.B) {
	const dim, distinct = 102_538, 32
	vecs := testVectors(distinct, dim, 7)
	acc := New(dim)
	acc.Add(vecs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		acc.Add(vecs[n%distinct])
	}
	b.StopTimer()
	benchSink += acc.Round(nil)[0]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dim, "ns/coord")
}

// BenchmarkShardRoundSparse is the whole server side of a top-k round: three
// shards each fold one k=1000 update, the root merges, rounds and everything
// resets. The cost should follow k: the second dimension is ten times the
// first and may add only its clear(dst) and bitmap.
func BenchmarkShardRoundSparse(b *testing.B) {
	const shards, k = 3, 1000
	for _, dim := range []int{102_538, 1_025_380} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			idx, vals := make([][]uint32, shards), make([][]float64, shards)
			parts := make([]*Accumulator, shards)
			for i := range parts {
				idx[i], vals[i], _ = topKUpdate(rng, dim, k)
				parts[i] = New(dim)
			}
			root := New(dim)
			dst := make([]float64, dim)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				root.Reset(dim)
				for i, acc := range parts {
					acc.Reset(dim)
					if err := acc.AddSparse(idx[i], vals[i]); err != nil {
						b.Fatal(err)
					}
					root.Merge(acc)
				}
				dst = root.Round(dst)
				benchSink += dst[idx[0][0]]
			}
		})
	}
}

// sparseVectors draws n sparse vectors over dim coordinates, each as the
// (idx, vals) view and as its densification. Values span several decades
// and include both zeros, so a coordinate can be named with −0, named with
// +0, or not named at all — the three cases the signed-zero rule equates.
func sparseVectors(n, dim, k int, seed int64) (idx [][]uint32, vals, dense [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		d := make([]float64, dim)
		var ix []uint32
		var vs []float64
		for _, j := range rng.Perm(dim)[:1+rng.Intn(k)] {
			ix = append(ix, uint32(j))
		}
		sort.Slice(ix, func(a, b int) bool { return ix[a] < ix[b] })
		for _, j := range ix {
			v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
			switch rng.Intn(8) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			vs = append(vs, v)
			d[j] = v
		}
		idx, vals, dense = append(idx, ix), append(vals, vs), append(dense, d)
	}
	return idx, vals, dense
}

// TestAddSparseMatchesAdd is the equivalence AddSparse is specified by: over
// any grouping of the same updates into shard accumulators, folding the
// sparse views gives the Round bits that folding their densifications
// gives. Small dim and k make coordinates collide often. MaxTerms is held
// to the same flatness bound as TestMaxTermsStaysFlat, not to equality: it
// measures the representation, and a dense pass of zeros can merge two
// terms of an expansion that the sparse fold leaves apart.
func TestAddSparseMatchesAdd(t *testing.T) {
	const n, dim = 24, 31
	for seed := int64(1); seed <= 40; seed++ {
		idx, vals, dense := sparseVectors(n, dim, 9, seed)
		var flatBits []uint64
		for _, groups := range []int{1, 3, 8} {
			denseRoot, sparseRoot := New(dim), New(dim)
			for _, r := range Split(n, groups) {
				denseAcc, sparseAcc := New(dim), New(dim)
				for i := r.Lo; i < r.Hi; i++ {
					denseAcc.Add(dense[i])
					if err := sparseAcc.AddSparse(idx[i], vals[i]); err != nil {
						t.Fatalf("seed %d vector %d: %v", seed, i, err)
					}
				}
				if sparseAcc.MaxTerms() > 16 {
					t.Fatalf("seed %d, %d groups: MaxTerms %d sparse (%d dense), want <= 16", seed, groups, sparseAcc.MaxTerms(), denseAcc.MaxTerms())
				}
				denseRoot.Merge(denseAcc)
				sparseRoot.Merge(sparseAcc)
			}
			want, got := denseRoot.Round(nil), sparseRoot.Round(nil)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d, %d groups, coordinate %d: sparse %x, dense %x", seed, groups, j, got[j], want[j])
				}
			}
			if flatBits == nil {
				for _, v := range got {
					flatBits = append(flatBits, math.Float64bits(v))
				}
			}
			for j, v := range got {
				if math.Float64bits(v) != flatBits[j] {
					t.Fatalf("seed %d: %d groups differ from flat at coordinate %d", seed, groups, j)
				}
			}
		}
	}
}

// TestRoundZeroSumIsPositiveZero pins the signed-zero rule on every way a
// coordinate can sum to zero.
func TestRoundZeroSumIsPositiveZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	acc := New(4)
	acc.Add([]float64{negZero, negZero, 1.5, 0})
	acc.Add([]float64{negZero, 0, -1.5, 0})
	if err := acc.AddSparse([]uint32{0}, []float64{negZero}); err != nil {
		t.Fatal(err)
	}
	for j, v := range acc.Round(nil) {
		if math.Float64bits(v) != 0 {
			t.Errorf("coordinate %d rounds to %v (bits %x), want +0", j, v, math.Float64bits(v))
		}
	}
	var s Scalar
	s.Add(negZero)
	if v := s.Round(); math.Float64bits(v) != 0 {
		t.Errorf("Scalar of −0 rounds to bits %x, want +0", math.Float64bits(v))
	}
}

// TestScalarNonFiniteTerms holds a Scalar that met a NaN or an infinity to
// the cost of a finite one: the expansion stays a few parts long however
// many terms follow, and the result is the IEEE sum of the non-finite terms
// whatever the finite ones add up to, merged or not.
func TestScalarNonFiniteTerms(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name  string
		terms []float64
		want  float64
	}{
		{"nan", []float64{math.NaN()}, math.NaN()},
		{"+inf", []float64{inf}, inf},
		{"-inf", []float64{-inf}, -inf},
		{"+inf-inf", []float64{inf, -inf}, math.NaN()},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, inf},
	} {
		var s, half Scalar
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40000; i++ {
			if i < len(tc.terms) {
				s.Add(tc.terms[i])
			}
			x := rng.NormFloat64()
			if i%2 == 0 {
				s.Add(x)
			} else {
				half.Add(x)
			}
			if len(s.parts) > 8 {
				t.Fatalf("%s: %d parts after %d terms", tc.name, len(s.parts), i+1)
			}
		}
		s.Merge(&half)
		if got := s.Round(); math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(got) && got != tc.want) {
			t.Errorf("%s: rounds to %v, want %v", tc.name, got, tc.want)
		}
		if s.Reset(); s.Round() != 0 {
			t.Errorf("%s: a reset scalar rounds to %v", tc.name, s.Round())
		}
	}
}

// TestAddSparseRejectsBeforeTouching feeds AddSparse every malformed view
// with a valid prefix in front of the defect: the accumulator must come
// back exactly as it went in.
func TestAddSparseRejectsBeforeTouching(t *testing.T) {
	const dim = 8
	acc := New(dim)
	acc.Add([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	before := append([]float64(nil), acc.Round(nil)...)
	cases := []struct {
		name      string
		idx       []uint32
		vals      []float64
		nonFinite bool
	}{
		{"duplicate", []uint32{1, 3, 3}, []float64{1, 1, 1}, false},
		{"descending", []uint32{1, 5, 4}, []float64{1, 1, 1}, false},
		{"out-of-range", []uint32{1, 2, dim}, []float64{1, 1, 1}, false},
		{"nan", []uint32{1, 2, 6}, []float64{1, 1, math.NaN()}, true},
		{"+inf", []uint32{0, 7}, []float64{1, math.Inf(1)}, true},
		{"-inf", []uint32{0, 7}, []float64{1, math.Inf(-1)}, true},
	}
	for _, tc := range cases {
		err := acc.AddSparse(tc.idx, tc.vals)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if errors.Is(err, ErrNonFinite) != tc.nonFinite {
			t.Fatalf("%s: error %v, want ErrNonFinite: %v", tc.name, err, tc.nonFinite)
		}
		for j, v := range acc.Round(nil) {
			if math.Float64bits(v) != math.Float64bits(before[j]) {
				t.Fatalf("%s: coordinate %d moved from %v to %v", tc.name, j, before[j], v)
			}
		}
	}
}

// topKUpdate draws one update with exactly k non-zero coordinates of dim, as
// the (idx, vals) view and as its densification.
func topKUpdate(rng *rand.Rand, dim, k int) (idx []uint32, vals, dense []float64) {
	dense = make([]float64, dim)
	for _, j := range rng.Perm(dim)[:k] {
		dense[j] = rng.NormFloat64()
	}
	for j, v := range dense {
		if v != 0 {
			idx, vals = append(idx, uint32(j)), append(vals, v)
		}
	}
	return idx, vals, dense
}

// BenchmarkShardAddSparse folds one top-1000 update of a 102,538-dim model
// (emu_wide_topk's shape) as its sparse view and, for the ratio, as the
// dense vector the server used to build from it. The round's Reset is
// outside the timer: both pay it alike.
func BenchmarkShardAddSparse(b *testing.B) {
	const dim, k = 102_538, 1000
	idx, vals, dense := topKUpdate(rand.New(rand.NewSource(6)), dim, k)
	acc := New(dim)
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if n%8 == 0 {
				b.StopTimer()
				acc.Reset(dim)
				b.StartTimer()
			}
			if err := acc.AddSparse(idx, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if n%8 == 0 {
				b.StopTimer()
				acc.Reset(dim)
				b.StartTimer()
			}
			acc.Add(dense)
		}
	})
}
