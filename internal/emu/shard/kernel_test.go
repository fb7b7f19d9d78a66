package shard

import (
	"math"
	"slices"
	"testing"
)

// bothPaths runs f with the dense sweeps on the tensor block kernels and on
// the scalar code alone. Without the kernels both runs are scalar.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() { vectorSweeps = true }()
	for _, vector := range []bool{true, false} {
		vectorSweeps = vector
		name := "scalar"
		if vector {
			name = "vector"
		}
		t.Run(name, f)
	}
}

// state is everything an accumulator holds, copied out, and what it rounds
// to, with the number of coordinates that round to a non-finite value.
type state struct {
	hi, lo         []float64
	dense, loZero  bool
	live, maxSpill int
	spill          map[uint32][]float64
	mark           []uint64
	dim            int
	round          []float64
	nonFinite      int
}

func snapshot(a *Accumulator) state {
	s := state{
		hi: slices.Clone(a.hi), lo: slices.Clone(a.lo), mark: slices.Clone(a.mark),
		dense: a.dense, loZero: a.loZero, live: a.live, maxSpill: a.maxSpill, dim: a.dim,
		spill: make(map[uint32][]float64),
	}
	for j, p := range a.spill {
		s.spill[j] = slices.Clone(p)
	}
	s.round = a.Round(nil)
	for _, v := range s.round {
		if math.IsNaN(v - v) {
			s.nonFinite++
		}
	}
	return s
}

// sameBits reports whether x and y hold the same float64 bits.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for j := range x {
		if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
			return false
		}
	}
	return true
}

// diff names the first difference between two states; "" if there is none.
// Round may differ only in the payload of a NaN it returns, which records
// nothing but which operand an add kept: the hi, lo and spill that a NaN
// came from are compared bit for bit.
func (s state) diff(o state) string {
	switch {
	case s.dim != o.dim || s.dense != o.dense || s.loZero != o.loZero || s.live != o.live:
		return "shape"
	case s.maxSpill != o.maxSpill:
		return "maxSpill"
	case !sameBits(s.hi, o.hi):
		return "hi"
	case !sameBits(s.lo, o.lo):
		return "lo"
	case !slices.Equal(s.mark, o.mark):
		return "mark"
	case len(s.spill) != len(o.spill):
		return "spill coordinates"
	}
	for j, p := range s.spill {
		if !sameBits(p, o.spill[j]) {
			return "spill terms"
		}
	}
	for j, v := range s.round {
		w := o.round[j]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return "round"
		}
	}
	return ""
}

// hardVectors are n gradient-shaped vectors over dim coordinates with the
// cases the kernels must hand to the scalar code planted in them: a
// coordinate that spills (2^1000, then 1, then 2^-1000: the last fits
// neither hi nor lo) at lane L of block L for every lane a block has, and in
// the tail; a NaN; +Inf and −Inf, which meet in one coordinate; and a −Inf
// alone. Each of the last three sums to a non-finite value.
func hardVectors(n, dim int, seed int64) (vecs [][]float64, spills []int) {
	vecs = testVectors(n, dim, seed)
	for lane := 0; lane < 8; lane++ {
		if j := 9 * lane; j < dim {
			spills = append(spills, j)
		}
	}
	if dim%8 != 0 && !slices.Contains(spills, dim-1) {
		spills = append(spills, dim-1) // in the tail
	}
	for _, j := range spills {
		vecs[0][j], vecs[1][j], vecs[2][j] = 0x1p1000, 1, 0x1p-1000
		vecs[4][j] = -0x1p-990 // and a spill that grows, in a later update
	}
	if dim > 16 {
		vecs[3][dim/2] = math.NaN()
		vecs[2][dim/3+1], vecs[5][dim/3+1] = math.Inf(1), math.Inf(-1)
		vecs[1][dim/3+2] = math.Inf(-1)
	}
	return vecs, spills
}

// foldSequence drives one accumulator through every dense sweep: the copy of
// a first vector, plain and weighted adds, adds after a sparse start (the
// makeDense path), a dense merge, a merge of a one-vector partial (which goes
// through Add) and a merge back into the merged-from side.
func foldSequence(dim int, vecs [][]float64) (root, other *Accumulator) {
	root, other, single := New(dim), New(dim), New(dim)
	root.Add(vecs[0])
	root.AddScaled(3.25, vecs[1])
	root.Add(vecs[2])
	if dim > 1 {
		if err := other.AddSparse([]uint32{0, uint32(dim - 1)}, []float64{0.5, -7}); err != nil {
			panic(err)
		}
	}
	other.Add(vecs[3])
	other.AddScaled(0.1, vecs[4])
	root.Merge(other)
	single.AddScaled(17, vecs[5])
	root.Merge(single)
	other.Merge(root)
	return root, other
}

// TestKernelMatchesScalarState holds the block kernels to the scalar code on
// the accumulator's whole state, not only on Round: after the same sequence
// of adds and merges, hi, lo, the live set, the spill map and maxSpill must
// be bit for bit the same on both paths, on every dimension around a block
// and on a full-size model.
func TestKernelMatchesScalarState(t *testing.T) {
	dims := []int{68, 100_100}
	for d := 0; d <= 17; d++ {
		dims = append(dims, d)
	}
	for _, dim := range dims {
		var n int
		vecs, spills := hardVectors(6, dim, int64(dim))
		want := map[bool][2]state{}
		bothPaths(t, func(t *testing.T) {
			root, other := foldSequence(dim, vecs)
			want[vectorSweeps] = [2]state{snapshot(root), snapshot(other)}
			n++
		})
		if n != 2 {
			t.Fatalf("dim %d: ran %d paths", dim, n)
		}
		for i, what := range []string{"root", "merged-from side"} {
			vec, sca := want[true][i], want[false][i]
			if d := vec.diff(sca); d != "" {
				t.Fatalf("dim %d, %s: the vector path's %s differs from the scalar path's", dim, what, d)
			}
			if len(vec.spill) != len(spills) {
				t.Fatalf("dim %d, %s: %d coordinates spilled, planted %d", dim, what, len(vec.spill), len(spills))
			}
			if dim > 16 && vec.nonFinite != 3 {
				t.Fatalf("dim %d, %s: %d coordinates round to a non-finite value, planted 3", dim, what, vec.nonFinite)
			}
		}
	}
}
