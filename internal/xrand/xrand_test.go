package xrand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, "client", 7)
	b := Derive(42, "client", 7)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: streams diverged: %v vs %v", i, x, y)
		}
	}
}

func TestDeriveIndependentByID(t *testing.T) {
	a := Derive(42, "client", 0)
	b := Derive(42, "client", 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different ids produced %d/64 identical draws", same)
	}
}

func TestDeriveIndependentByPurpose(t *testing.T) {
	a := Derive(42, "data", 0)
	b := Derive(42, "init", 0)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different purposes produced %d/64 identical draws", same)
	}
}

func TestDeriveCompactDeterministic(t *testing.T) {
	a := DeriveCompact(42, "client", 7)
	b := DeriveCompact(42, "client", 7)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: compact streams diverged: %v vs %v", i, x, y)
		}
	}
}

// TestDeriveCompactOneAllocation holds a compact stream to one object: a
// simulated population derives two per client.
func TestDeriveCompactOneAllocation(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { DeriveCompact(42, "client", 7) }); n != 1 {
		t.Fatalf("DeriveCompact allocates %v times, want 1", n)
	}
}

// TestRederiveMatchesDeriveCompact re-points a stream in mid-sequence, and
// a zero Compact, at a key and requires every kind of draw to match a fresh
// DeriveCompact of that key. Only a *Compact has Rederive: a stream from New
// or Derive cannot be re-pointed, and the types make the call impossible.
func TestRederiveMatchesDeriveCompact(t *testing.T) {
	used := new(Compact)
	used.Rederive(1, "other", 2)
	for i := 0; i < 13; i++ {
		used.Norm()
		used.Intn(7)
	}
	for name, c := range map[string]*Compact{"mid-sequence": used, "zero": new(Compact)} {
		for _, id := range []int{0, 5, 1 << 33} {
			c.Rederive(42, "sim-data", id)
			fresh := DeriveCompact(42, "sim-data", id)
			for i := 0; i < 50; i++ {
				if a, b := c.Float64(), fresh.Float64(); a != b {
					t.Fatalf("%s, id %d, draw %d: Float64 %v, want %v", name, id, i, a, b)
				}
				if a, b := c.Int63(), fresh.Int63(); a != b {
					t.Fatalf("%s, id %d, draw %d: Int63 %v, want %v", name, id, i, a, b)
				}
				if a, b := c.Intn(1000+i), fresh.Intn(1000+i); a != b {
					t.Fatalf("%s, id %d, draw %d: Intn %v, want %v", name, id, i, a, b)
				}
				if a, b := c.Norm(), fresh.Norm(); a != b {
					t.Fatalf("%s, id %d, draw %d: Norm %v, want %v", name, id, i, a, b)
				}
			}
			a, b := c.PermInto(nil, 40), fresh.PermInto(nil, 40)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s, id %d: PermInto %v, want %v", name, id, a, b)
				}
			}
			u, v := c.NormVecInto(make([]float64, 9), 0, 0.5), fresh.NormVec(9, 0, 0.5)
			for i := range u {
				if math.Float64bits(u[i]) != math.Float64bits(v[i]) {
					t.Fatalf("%s, id %d: NormVecInto %v, want NormVec's %v", name, id, u, v)
				}
			}
		}
	}
}

// TestRederiveAllocFree holds re-pointing a stream to no allocation: a
// population builder re-derives once per client.
func TestRederiveAllocFree(t *testing.T) {
	c := new(Compact)
	id := 0
	if n := testing.AllocsPerRun(100, func() { id++; c.Rederive(42, "sim-data", id) }); n != 0 {
		t.Fatalf("Rederive allocates %v times, want 0", n)
	}
}

func TestDeriveCompactIndependence(t *testing.T) {
	pairs := []struct {
		name string
		a, b *Stream
	}{
		{"by id", DeriveCompact(42, "client", 0), DeriveCompact(42, "client", 1)},
		{"by purpose", DeriveCompact(42, "data", 0), DeriveCompact(42, "init", 0)},
		{"by seed", DeriveCompact(42, "client", 0), DeriveCompact(43, "client", 0)},
		{"from Derive", DeriveCompact(42, "client", 0), Derive(42, "client", 0)},
	}
	for _, p := range pairs {
		same := 0
		for i := 0; i < 64; i++ {
			if p.a.Float64() == p.b.Float64() {
				same++
			}
		}
		if same > 2 {
			t.Fatalf("%s: streams produced %d/64 identical draws", p.name, same)
		}
	}
}

func TestDeriveCompactMoments(t *testing.T) {
	// The compact generator must be a usable uniform source, not just
	// deterministic: check first and second moments of Float64.
	s := DeriveCompact(7, "moments", 0)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := s.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("draw %d = %v outside [0,1)", i, x)
		}
		sum += x
		sq += x * x
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if v := sq/n - mean*mean; math.Abs(v-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~1/12", v)
	}
}

func TestSplitmix64KnownVectors(t *testing.T) {
	// Reference outputs for state=1234567 from the SplitMix64 definition
	// (Steele et al.); pins the constants against typos.
	s := &splitmix64{state: 1234567}
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestNormVecMoments(t *testing.T) {
	s := New(1)
	const n = 200000
	v := s.NormVec(n, 3.0, 2.0)
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / n
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	std := math.Sqrt(sq / n)
	if math.Abs(mean-3.0) > 0.05 {
		t.Errorf("mean = %v, want ~3.0", mean)
	}
	if math.Abs(std-2.0) > 0.05 {
		t.Errorf("std = %v, want ~2.0", std)
	}
}

func TestUniformVecRange(t *testing.T) {
	s := New(2)
	v := s.UniformVec(1000, -1.5, 2.5)
	for i, x := range v {
		if x < -1.5 || x >= 2.5 {
			t.Fatalf("element %d = %v outside [-1.5, 2.5)", i, x)
		}
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	s := New(3)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("category ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalZeroSumFallsBackToUniform(t *testing.T) {
	s := New(4)
	w := []float64{0, 0, 0, 0}
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[s.Categorical(w)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("category %d sampled %d/4000 times, want ~1000", i, c)
		}
	}
}

func TestCategoricalNegativeWeightsIgnored(t *testing.T) {
	s := New(5)
	w := []float64{-5, 1, -2}
	for i := 0; i < 1000; i++ {
		if got := s.Categorical(w); got != 1 {
			t.Fatalf("Categorical picked index %d with negative weight", got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveDiffersFromOtherSeeds(t *testing.T) {
	f := func(seed int64) bool {
		a := Derive(seed, "x", 0)
		b := Derive(seed+1, "x", 0)
		// At least one of the first 8 draws must differ.
		for i := 0; i < 8; i++ {
			if a.Float64() != b.Float64() {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveCompactCrossCorrelation strengthens the independence claim
// beyond "draws rarely collide": adjacent-id and adjacent-seed compact
// streams must be statistically uncorrelated, not merely unequal, or a
// million-client population would carry hidden structure between
// neighbouring clients.
func TestDeriveCompactCrossCorrelation(t *testing.T) {
	pairs := []struct {
		name string
		a, b *Stream
	}{
		{"adjacent ids", DeriveCompact(1, "client", 1000), DeriveCompact(1, "client", 1001)},
		{"adjacent seeds", DeriveCompact(7, "client", 0), DeriveCompact(8, "client", 0)},
		{"prefix purposes", DeriveCompact(7, "cli", 0), DeriveCompact(7, "client", 0)},
	}
	const n = 20000
	for _, p := range pairs {
		var sa, sb, saa, sbb, sab float64
		for i := 0; i < n; i++ {
			x, y := p.a.Float64(), p.b.Float64()
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		if r := cov / math.Sqrt(va*vb); math.Abs(r) > 0.03 {
			t.Errorf("%s: correlation = %v, want |r| < 0.03", p.name, r)
		}
	}
}

// TestPermIntoMatchesPerm: PermInto, into a fresh or a reused dirty buffer,
// yields math/rand's Perm and leaves the stream where Perm leaves it, on both
// sources. The permutation is the SGD schedule, so a single differing draw
// would move every trained model.
func TestPermIntoMatchesPerm(t *testing.T) {
	sizes := make([]int, 0, 72)
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 1000)
	sources := map[string]func(seed int64) rand.Source{
		"math/rand": rand.NewSource,
		"splitmix64": func(seed int64) rand.Source {
			return &splitmix64{state: uint64(seed)}
		},
	}
	for name, src := range sources {
		dirty := make([]int, 0, 1000)
		for seed := int64(1); seed <= 5; seed++ {
			for _, n := range sizes {
				ref := rand.New(src(seed))
				s := &Stream{rng: rand.New(src(seed))}
				dirty = dirty[:cap(dirty)]
				for k := range dirty {
					dirty[k] = -1
				}
				wants := [][]int{ref.Perm(n), ref.Perm(n)}
				for k, got := range [][]int{s.PermInto(dirty, n), s.Perm(n)} {
					if len(got) != n {
						t.Fatalf("%s seed %d n %d: length %d", name, seed, n, len(got))
					}
					for i, w := range wants[k] {
						if got[i] != w {
							t.Fatalf("%s seed %d n %d: [%d] = %d, want %d", name, seed, n, i, got[i], w)
						}
					}
				}
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("%s seed %d n %d: next draw %d, want %d", name, seed, n, got, want)
				}
			}
		}
	}
}
