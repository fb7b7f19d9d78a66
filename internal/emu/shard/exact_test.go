package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shewchuk is the accumulator this package shipped before the flat one — a
// grow-expansion per coordinate — kept as the second oracle beside math/big:
// independent of TwoSum pairs, bitmaps and spills, and exact by the same
// argument as Python's math.fsum.
type shewchuk [][]float64

func (o shewchuk) add(vec []float64) {
	for j, x := range vec {
		o[j] = growExpansion(o[j], x)
	}
}

// update is one vector on its way into an accumulator: its dense form, and
// the sparse view (which may name zeros) when it travels that way.
type update struct {
	dense  []float64
	sparse bool
	idx    []uint32
	vals   []float64
}

func (u update) foldInto(t testing.TB, acc *Accumulator) {
	if !u.sparse {
		acc.Add(u.dense)
	} else if err := acc.AddSparse(u.idx, u.vals); err != nil {
		t.Fatalf("AddSparse(%v, %v): %v", u.idx, u.vals, err)
	}
}

// checkExact asserts acc.Round is, bit for bit, the correctly rounded sum of
// the updates by both oracles, and +0 wherever that sum is zero.
func checkExact(t testing.TB, what string, acc *Accumulator, updates []update) {
	t.Helper()
	oracle := make(shewchuk, acc.Dim())
	for _, u := range updates {
		oracle.add(u.dense)
	}
	dirty := make([]float64, acc.Dim()+3) // Round owes nothing to what dst held
	for j := range dirty {
		dirty[j] = math.NaN()
	}
	got := acc.Round(dirty[:1])
	if len(got) != acc.Dim() {
		t.Fatalf("%s: Round returned %d coordinates, Dim is %d", what, len(got), acc.Dim())
	}
	col := make([]float64, len(updates))
	for j, g := range got {
		for i, u := range updates {
			col[i] = u.dense[j]
		}
		want := refSum(col)
		if want == 0 {
			want = 0 // the signed-zero rule: every zero sum is +0
		}
		if math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("%s: coordinate %d of %v: Round = %x (%v), math/big = %x (%v)", what, j, col, math.Float64bits(g), g, math.Float64bits(want), want)
		}
		if o := roundExpansion(oracle[j]); math.Float64bits(g) != math.Float64bits(o) {
			t.Fatalf("%s: coordinate %d of %v: Round = %x, Shewchuk oracle = %x", what, j, col, math.Float64bits(g), math.Float64bits(o))
		}
	}
}

// spillPalette is what FuzzAccumulatorExact draws from: magnitudes 2000
// binades apart so that two floats cannot hold a coordinate's sum, each with
// its negation so that sums cancel exactly, denormals, both zeros, and
// neighbours of powers of two for the half-way cases of the final rounding.
var spillPalette = [32]float64{
	0, math.Copysign(0, -1), 1, -1,
	0x1p1000, -0x1p1000, 0x1p-1000, -0x1p-1000,
	math.MaxFloat64 / 4, -math.MaxFloat64 / 4, 0x1p600, -0x1p600,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1060,
	0x1p53, -0x1p53, 0x1p-53, -0x1p-53,
	1 + 0x1p-52, -(1 + 0x1p-52), 0x1p-54, -0x1p-54,
	0x1p-600, -0x1p-600, 1e16, -1e16,
	1e-3, -1e-3, 0.1, -0.7,
}

// spillSeed is, at dim 1 and densely, 2^1000 + 1 + 2^-1000 − 2^1000 − 1:
// the third term fits neither hi nor lo, and it alone survives.
var spillSeed = []byte{0, 0, 4, 0, 2, 0, 6, 0, 5, 0, 3}

// fuzzUpdates turns fuzz bytes into updates over a small dim (so coordinates
// collide): per vector one byte of shape, then one byte a coordinate — five
// bits of palette, two of exact scaling, one saying whether a sparse view
// names the coordinate. At most two terms a coordinate may be huge, which
// keeps every partial sum of every grouping finite.
func fuzzUpdates(data []byte) (dim int, updates []update) {
	if len(data) == 0 {
		return 1, nil
	}
	dim = []int{1, 3, 64, 65, 130}[int(data[0])%5]
	data = data[1:]
	huge := make([]int, dim)
	for len(data) > dim && len(updates) < 24 {
		u := update{dense: make([]float64, dim), sparse: data[0]&1 == 1}
		for j, b := range data[1 : 1+dim] {
			v := spillPalette[b&31] * (1 + float64(b>>5&3)/4)
			if math.Abs(v) > 0x1p1020 {
				if huge[j]++; huge[j] > 2 {
					v = 1
				}
			}
			if u.sparse && b>>7 == 0 {
				continue
			}
			u.dense[j] = v
			u.idx, u.vals = append(u.idx, uint32(j)), append(u.vals, v)
		}
		updates = append(updates, u)
		data = data[1+dim:]
	}
	return dim, updates
}

// FuzzAccumulatorExact is the exactness contract on inputs built to leave
// the (hi, lo) fast path: the same updates, arriving densely or sparsely,
// folded through 1, 3 and 8 shard accumulators and merged forwards,
// backwards or through a middle tier, must round to the bits of the exact
// sum — the math/big reference and the Shewchuk oracle — and to +0 where it
// is zero. A Round in mid-fold must not disturb anything. All of it runs on
// the block kernels and on the scalar code alone, and the two roots must
// hold the same state.
func FuzzAccumulatorExact(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 1+rng.Intn(600))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add(spillSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, updates := fuzzUpdates(data)
		if len(updates) == 0 {
			return
		}
		defer func() { vectorSweeps = true }()
		var roots [2]state
		for path, vector := range []bool{false, true} {
			vectorSweeps = vector
			for _, groups := range []int{1, 3, 8} {
				groups = min(groups, len(updates))
				parts := make([]*Accumulator, groups)
				for i, r := range Split(len(updates), groups) {
					parts[i] = New(dim)
					for _, u := range updates[r.Lo:r.Hi] {
						u.foldInto(t, parts[i])
						if groups == 3 {
							parts[i].Round(nil)
						}
					}
				}
				root := New(dim)
				switch groups {
				case 3: // backwards
					for i := groups - 1; i >= 0; i-- {
						root.Merge(parts[i])
					}
				case 8: // through a middle tier of two
					mid := []*Accumulator{New(dim), New(dim)}
					for i, p := range parts {
						mid[i%2].Merge(p)
					}
					root.Merge(mid[1])
					root.Merge(mid[0])
				default:
					for _, p := range parts {
						root.Merge(p)
					}
					roots[path] = snapshot(root)
				}
				checkExact(t, fmt.Sprintf("fuzz (vector sweeps %v)", vector), root, updates)
			}
		}
		if d := roots[1].diff(roots[0]); d != "" {
			t.Fatalf("the vector path's %s differs from the scalar path's", d)
		}
	})
}

// TestSpillPathIsTaken keeps the fuzz target honest: its hand-written seed
// must leave the (hi, lo) pair, or the oracle comparison proves nothing
// about the spill.
func TestSpillPathIsTaken(t *testing.T) {
	dim, updates := fuzzUpdates(spillSeed)
	acc := New(dim)
	for _, u := range updates {
		u.foldInto(t, acc)
	}
	if acc.MaxTerms() <= 2 {
		t.Fatalf("MaxTerms = %d after 2^1000 + 1 + 2^-1000: nothing spilled", acc.MaxTerms())
	}
	checkExact(t, "spill", acc, updates)
	if got := acc.Round(nil)[0]; got != 0x1p-1000 {
		t.Fatalf("Round = %v, want the spilled 2^-1000", got)
	}
}

// denseUpdates and sparseUpdates wrap the shared generators as updates.
func denseUpdates(n, dim int, seed int64) []update {
	var out []update
	for _, v := range testVectors(n, dim, seed) {
		out = append(out, update{dense: v})
	}
	return out
}

func sparseUpdates(n, dim, k int, seed int64) []update {
	idx, vals, dense := sparseVectors(n, dim, k, seed)
	var out []update
	for i := range idx {
		out = append(out, update{dense: dense[i], sparse: true, idx: idx[i], vals: vals[i]})
	}
	return out
}

// TestReuseAcrossRounds drives one accumulator through rounds of every
// shape. Reset clears nothing but a bitmap, so each round runs on top of the
// previous one's floats: none of them may show.
func TestReuseAcrossRounds(t *testing.T) {
	const dim = 200
	acc, other := New(dim), New(dim)
	round := func(what string, dim int, updates []update) {
		t.Helper()
		acc.Reset(dim)
		for _, u := range updates {
			u.foldInto(t, acc)
		}
		checkExact(t, what, acc, updates)
	}
	mixed := append(sparseUpdates(3, dim, 20, 13), denseUpdates(2, dim, 14)...)
	round("dense", dim, denseUpdates(5, dim, 11))
	round("sparse after dense", dim, sparseUpdates(4, dim, 20, 12))
	round("sparse then dense in one round", dim, mixed)
	round("dense then sparse in one round", dim, append(denseUpdates(2, dim, 15), sparseUpdates(3, dim, 20, 16)...))
	round("one dense update", dim, denseUpdates(1, dim, 17))
	round("smaller dim, sparse", 70, sparseUpdates(4, 70, 9, 18))
	round("larger dim, sparse", 3*dim, sparseUpdates(4, 3*dim, 9, 19))
	round("larger dim, dense", 3*dim, denseUpdates(2, 3*dim, 20))
	round("back to dim, one sparse update", dim, sparseUpdates(1, dim, 5, 21))
	_, spilling := fuzzUpdates(spillSeed)
	round("spilling", 1, spilling)
	round("after a spill", 1, denseUpdates(2, 1, 32))
	round("empty", dim, nil)

	// Merge across shapes, into an accumulator that has history of its own.
	for _, c := range []struct {
		what       string
		into, from []update
	}{
		{"dense into sparse", sparseUpdates(3, dim, 20, 22), denseUpdates(2, dim, 23)},
		{"sparse into dense", denseUpdates(2, dim, 24), sparseUpdates(3, dim, 20, 25)},
		{"sparse into sparse", sparseUpdates(3, dim, 20, 26), sparseUpdates(3, dim, 20, 27)},
		{"dense into empty", nil, denseUpdates(2, dim, 28)},
		{"one dense into empty", nil, denseUpdates(1, dim, 33)},
		{"one dense into dense", denseUpdates(2, dim, 34), denseUpdates(1, dim, 35)},
		// k near dim: coordinates are hit again and again, so lo matters.
		{"one dense then sparse into empty", nil, append(denseUpdates(1, dim, 36), sparseUpdates(6, dim, 150, 37)...)},
		{"sparse into one dense", denseUpdates(1, dim, 38), sparseUpdates(6, dim, 150, 39)},
		{"empty into sparse", sparseUpdates(2, dim, 20, 29), nil},
	} {
		acc.Reset(dim)
		other.Reset(dim)
		for _, u := range c.into {
			u.foldInto(t, acc)
		}
		for _, u := range c.from {
			u.foldInto(t, other)
		}
		acc.Merge(other)
		checkExact(t, c.what, acc, append(c.into[:len(c.into):len(c.into)], c.from...))
		checkExact(t, c.what+" (merged-from side untouched)", other, c.from)
		other.Merge(acc) // and back: whatever Merge left behind must merge on
		checkExact(t, c.what+" and back", other, append(append(c.into[:len(c.into):len(c.into)], c.from...), c.from...))
	}
}

// TestSteadyRoundsAllocateNothing runs a whole server round — shard folds,
// root merge, Round, Reset — in each regime on warmed accumulators.
func TestSteadyRoundsAllocateNothing(t *testing.T) {
	const dim, shards = 5000, 3
	for _, c := range []struct {
		name    string
		updates []update
	}{
		{"dense", denseUpdates(2*shards, dim, 30)},
		{"sparse", sparseUpdates(2*shards, dim, 100, 31)},
	} {
		parts := make([]*Accumulator, shards)
		for i := range parts {
			parts[i] = New(dim)
		}
		root, dst := New(dim), make([]float64, dim)
		allocs := testing.AllocsPerRun(10, func() {
			root.Reset(dim)
			for i, p := range parts {
				p.Reset(dim)
				c.updates[2*i].foldInto(t, p)
				c.updates[2*i+1].foldInto(t, p)
				root.Merge(p)
			}
			dst = root.Round(dst)
		})
		if allocs != 0 {
			t.Errorf("%s round: %v allocs, want 0", c.name, allocs)
		}
		checkExact(t, c.name, root, c.updates)
	}
}

// TestOverflowingSumIsNotFinite: finite terms whose partial sum overflows
// cannot be summed exactly in floats. Whatever order they arrive in, Round
// then returns either the exact answer or a non-finite value for the caller
// to reject — never a wrong finite one — the neighbours are unharmed, and
// nothing accumulates.
func TestOverflowingSumIsNotFinite(t *testing.T) {
	terms := []float64{1.5e308, 1.5e308, -1.5e308}
	sawNonFinite := false
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {2, 0, 1}, {2, 1, 0}} {
		for _, sparse := range []bool{false, true} {
			acc := New(3)
			for _, i := range order {
				u := update{dense: []float64{0.25, terms[i], -3}, sparse: sparse, idx: []uint32{0, 1, 2}}
				u.vals = u.dense
				u.foldInto(t, acc)
			}
			got := acc.Round(nil)
			if got[0] != 0.75 || got[2] != -9 {
				t.Fatalf("order %v: neighbours of the overflow round to %v, %v", order, got[0], got[2])
			}
			finite := !math.IsNaN(got[1] - got[1])
			if finite && got[1] != 1.5e308 {
				t.Fatalf("order %v: Round = %v: a wrong finite sum", order, got[1])
			}
			sawNonFinite = sawNonFinite || !finite
			if acc.MaxTerms() != 2 {
				t.Fatalf("order %v: MaxTerms = %d: the overflow was kept as a spill", order, acc.MaxTerms())
			}
		}
	}
	if !sawNonFinite {
		t.Fatal("no order overflowed: the test no longer reaches the case it is about")
	}
}
