// Package shard provides the numeric core of the emulator's two-tier
// aggregation tree: an exactly-rounded floating-point accumulator whose
// result is independent of how its inputs were grouped across shard
// aggregators, plus the contiguous client-partition helper.
//
// Floating-point addition is not associative, so naive per-shard partial
// sums merged at the root would drift bitwise from a flat server's
// sequential sum — and from each other as the shard count changes. The
// Accumulator sidesteps the problem entirely: each coordinate's running sum
// is kept EXACT — two floats hi + lo under error-free TwoSum additions, and
// a spilled Shewchuk expansion (the machinery behind Python's math.fsum) for
// the rare coordinate whose terms span more bits than two floats hold — and
// Round returns the correctly rounded float64 of that exact value, which is
// unique: any grouping of the same update multiset — one shard or eight,
// merged in any order — rounds to identical bits. That is the determinism
// argument that lets `Shards: N` reproduce the flat server's FinalParams
// bit-for-bit under the chaos suite. (It holds while no partial sum
// overflows; one that does rounds to a non-finite value for the caller to
// reject.)
//
// Memory is 16 B a coordinate plus a dim/64-word bitmap, flat in the client
// count, and cost follows the bytes received: a dense update is a sweep, a
// sparse one touches its own coordinates, and Reset, Merge and Round of a
// sparsely filled accumulator walk the bitmap, not the dimension.
package shard

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cmfl/internal/tensor"
)

// ErrNonFinite reports a NaN or ±Inf value offered to an exact sum, or an
// exact sum that overflowed. Such a value never leaves the sum — every later
// TwoSum against it stores another NaN — and would poison the aggregate.
var ErrNonFinite = errors.New("shard: non-finite value in update")

// CheckFinite names the first NaN or ±Inf coordinate of vec in an error
// wrapping ErrNonFinite. It is the sweep for a vector made elsewhere: a dense
// codec's decode, or a rounded sum, which overflows while every term is
// finite.
func CheckFinite(vec []float64) error {
	for j, v := range vec {
		if math.IsNaN(v - v) { // v-v is 0 for finite v, NaN otherwise
			return fmt.Errorf("coordinate %d = %v: %w", j, v, ErrNonFinite)
		}
	}
	return nil
}

// Accumulator sums float64 vectors exactly. The zero value is unusable;
// call New (or Reset on a reused value).
//
// Not safe for concurrent use: in the aggregation tree each shard owns one
// accumulator and the root merges them single-threaded.
type Accumulator struct {
	dim int
	// hi[j] + lo[j] + Σ spill[j] is, exactly, the sum of every value added
	// to a live coordinate j since the last Reset. Coordinates that are not
	// live sum to zero and hold stale floats of earlier rounds.
	hi, lo []float64
	// dense says every coordinate is live; otherwise the live ones are the
	// set bits of mark (bit j&63 of word j>>6) and live counts them.
	dense bool
	mark  []uint64
	live  int
	// loZero, read only while dense: the sum is one vector, in hi over a
	// zeroed lo — a gated shard's usual round — and merges as hi alone.
	loZero bool
	// spill[j] is the non-overlapping expansion of what hi[j] and lo[j]
	// could not absorb: the second TwoSum's residual, non-zero only when a
	// coordinate's terms span more than ~2^53 in magnitude.
	spill    map[uint32][]float64
	scratch  []float64 // Round's expansion of one spilled coordinate
	maxSpill int       // widest spill observed, across Resets
}

// New returns an empty accumulator for dim-dimensional vectors.
func New(dim int) *Accumulator {
	a := &Accumulator{}
	a.Reset(dim)
	return a
}

// Reset empties the accumulator and sets its dimension, retaining the
// arrays: it clears the bitmap and nothing else, so what a round left in hi
// and lo stays there until a coordinate goes live again and overwrites it.
func (a *Accumulator) Reset(dim int) {
	words := (dim + 63) / 64
	if cap(a.hi) < dim {
		a.hi, a.lo, a.mark = make([]float64, dim), make([]float64, dim), make([]uint64, words)
	}
	clear(a.mark)
	a.hi, a.lo, a.mark = a.hi[:dim], a.lo[:dim], a.mark[:words]
	a.dim, a.dense, a.live = dim, false, 0
	if a.spill == nil || len(a.spill) > 0 { // a fresh map: clear would keep a hostile round's buckets
		a.spill = make(map[uint32][]float64)
	}
}

// Dim returns the accumulator's vector dimension.
func (a *Accumulator) Dim() int { return a.dim }

// MaxTerms returns the memory high-water mark in floats per coordinate: hi
// and lo, plus the widest spill observed so far.
func (a *Accumulator) MaxTerms() int { return 2 + a.maxSpill }

// Add folds one vector into the running exact sum. len(vec) must equal Dim.
//
//cmfl:hotpath
func (a *Accumulator) Add(vec []float64) { a.AddScaled(1, vec) }

// AddScaled folds alpha·vec into the running exact sum, each product
// rounded to a float64 first: the sum is exactly that of the rounded
// products, as though the scaled vector had been built and then added.
// len(vec) must equal Dim.
//
// The dense sweep runs eight coordinates at a time where the CPU has the
// kernel (tensor.ExactAdd). A block that spills goes through the scalar
// code below, as does the tail and every coordinate without the kernel;
// either way each stored float comes from the same IEEE operations.
//
//cmfl:hotpath
func (a *Accumulator) AddScaled(alpha float64, vec []float64) {
	if len(vec) != a.dim {
		panic("shard: Add dimension mismatch")
	}
	if a.empty() { // the round's first vector is a copy
		copy(a.hi, vec)
		if math.Float64bits(alpha) != oneBits { // x·1 is x
			tensor.ScaleVec(alpha, a.hi)
		}
		clear(a.lo)
		a.dense, a.loZero = true, true
		return
	}
	a.makeDense()
	hi, lo := a.hi[:len(vec)], a.lo[:len(vec)]
	for j := 0; j < len(vec); {
		end := len(vec)
		if vectorSweeps {
			j += tensor.ExactAdd(hi[j:], lo[j:], vec[j:], alpha)
			end = min(j+tensor.ExactBlock, end) // the block that stopped the kernel, or the tail
		}
		for ; j < end; j++ {
			s, e := twoSum(hi[j], float64(alpha*vec[j])) // rounded: never fused into the sum
			t, e2 := twoSum(lo[j], e)
			hi[j], lo[j] = s, t
			if math.Float64bits(e2)<<1 != 0 {
				a.spillAt(j, e2)
			}
		}
	}
}

// oneBits is the bit pattern of 1.0.
const oneBits = 0x3FF0000000000000

// vectorSweeps routes the dense sweeps of Add, Merge and Round through the
// tensor block kernels, which do nothing on a CPU without them. Turning it
// off runs the scalar code alone; the tests compare the two.
var vectorSweeps = true

// empty reports that no coordinate has come to life since Reset.
func (a *Accumulator) empty() bool { return !a.dense && a.live == 0 }

// makeDense brings every coordinate to life, as zero, ahead of a dense sweep.
func (a *Accumulator) makeDense() {
	a.loZero = false
	if a.dense {
		return
	}
	a.dense = true
	for j := range a.hi {
		if a.mark[j>>6]>>(j&63)&1 == 0 {
			a.hi[j], a.lo[j] = 0, 0
		}
	}
}

// AddSparse folds the vector holding vals[n] at coordinate idx[n] and zero
// elsewhere — a sparse codec's view of an update — touching only the named
// coordinates. idx must be strictly ascending and below Dim, vals finite
// (ErrNonFinite); a vector failing either is rejected before any coordinate
// changes.
//
// Round afterwards is bit for bit what it is after Add of the densified
// vector: a zero never changes an exact sum, so the coordinates Add would
// walk with one are skipped, and an exact sum has no memory of which terms
// arrived densely. Signed zero is all a skipped +0 could change, and Round
// leaves it nothing: a sum that is exactly zero rounds to +0 whether
// untouched, fed only −0, or cancelled.
//
//cmfl:hotpath
func (a *Accumulator) AddSparse(idx []uint32, vals []float64) error {
	prev := -1
	for n, j := range idx {
		if int(j) <= prev || int(j) >= a.dim {
			return fmt.Errorf("shard: sparse coordinate %d after %d in dim %d", j, prev, a.dim)
		}
		if v := vals[n]; math.IsNaN(v - v) { // v-v is 0 for finite v, NaN otherwise
			return fmt.Errorf("%w: coordinate %d = %v", ErrNonFinite, j, v)
		}
		prev = int(j)
	}
	a.loZero = false
	for n, j := range idx {
		a.add1(int(j), vals[n])
	}
	return nil
}

// Merge folds another accumulator's exact sum into this one. Every float b
// holds is an ordinary float64 whose re-insertion is exact, so the merged
// accumulator represents precisely the union of both input multisets —
// grouping leaves no trace. A dense b costs one sweep (a copy into an empty
// a), a sparse one its live coordinates.
//
//cmfl:hotpath
func (a *Accumulator) Merge(b *Accumulator) {
	if b.dim != a.dim {
		panic("shard: Merge dimension mismatch")
	}
	switch {
	case !b.dense:
		a.loZero = false
		for w, word := range b.mark {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				a.add1(j, b.hi[j])
				a.add1(j, b.lo[j])
			}
		}
	case a.empty():
		copy(a.hi, b.hi)
		copy(a.lo, b.lo)
		a.dense, a.loZero = true, b.loZero
	case b.loZero:
		a.Add(b.hi)
	default:
		a.makeDense()
		hi, lo, bhi, blo := a.hi, a.lo[:len(a.hi)], b.hi[:len(a.hi)], b.lo[:len(a.hi)]
		for j := 0; j < len(hi); {
			end := len(hi)
			if vectorSweeps {
				j += tensor.ExactMerge(hi[j:], lo[j:], bhi[j:], blo[j:])
				end = min(j+tensor.ExactBlock, end)
			}
			for ; j < end; j++ {
				s, e := twoSum(hi[j], bhi[j])
				t, e2 := twoSum(lo[j], e)
				t, e3 := twoSum(t, blo[j]) // b's lo is of lo's scale, not hi's: it joins lo directly
				hi[j], lo[j] = s, t
				if math.Float64bits(e2)<<1 != 0 {
					a.spillAt(j, e2)
				}
				if math.Float64bits(e3)<<1 != 0 {
					a.spillAt(j, e3)
				}
			}
		}
	}
	for j, terms := range b.spill {
		for _, v := range terms {
			a.add1(int(j), v)
		}
	}
}

// add1 adds x to coordinate j, bringing it to life if it was not.
func (a *Accumulator) add1(j int, x float64) {
	if !a.dense {
		if w, bit := j>>6, uint64(1)<<(j&63); a.mark[w]&bit == 0 {
			a.mark[w] |= bit
			a.live++
			a.hi[j], a.lo[j] = x, 0
			return
		}
	}
	s, e := twoSum(a.hi[j], x)
	t, e2 := twoSum(a.lo[j], e)
	a.hi[j], a.lo[j] = s, t
	if math.Float64bits(e2)<<1 != 0 {
		a.spillAt(j, e2)
	}
}

// twoSum is Knuth's branch-free error-free addition: s = fl(x+y) and
// s + e = x + y exactly, whatever the operands' magnitudes.
func twoSum(x, y float64) (s, e float64) {
	s = x + y
	v := s - x
	return s, (x - (s - v)) + (y - v)
}

// spillAt keeps the residual e2 that neither hi[j] nor lo[j] could absorb,
// so coordinate j's sum stays exact. A non-finite residual means a partial
// sum overflowed: hi and lo already say so, and there is nothing to keep.
func (a *Accumulator) spillAt(j int, e2 float64) {
	if math.IsNaN(e2 - e2) {
		return
	}
	p := growExpansion(a.spill[uint32(j)], e2)
	a.spill[uint32(j)] = p
	a.maxSpill = max(a.maxSpill, len(p))
}

// growExpansion folds x into a non-overlapping expansion: the TwoSum
// cascade keeps the invariant that the expansion's exact real sum is
// unchanged while its terms stay non-overlapping in increasing magnitude
// order.
func growExpansion(p []float64, x float64) []float64 {
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		// lo != ±0, compared on bits: exact-zero tests are the point of
		// this algorithm, and bit tests keep them out of float-eq lint
		// territory while treating -0 like 0.
		if math.Float64bits(lo)<<1 != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	//cmfl:lint-ignore hotpathalloc amortized grow-only on a Scalar; on an Accumulator only the spill path gets here, which gradient-scale data never takes
	return append(p[:i], x)
}

// Scalar sums float64 values exactly: the one-component sibling of
// Accumulator, for the scalar round statistics (loss and relevance sums)
// that ride alongside the vector aggregate and must be just as
// grouping-invariant. Unlike Accumulator, the zero value is empty and
// ready to use.
//
// A NaN or ±Inf term stays out of the expansion, as out of an Accumulator's
// spill: every later TwoSum against it would leave one more part behind. The
// non-finite terms are summed in IEEE arithmetic, which is order-free over
// them, and that sum is the result. So is a finite partial sum that
// overflows: the order can then decide the result, as in an Accumulator.
//
// Not safe for concurrent use.
type Scalar struct {
	parts     []float64
	nonFinite float64 // the IEEE sum of the non-finite terms; 0 while none
}

// Add folds one value into the running exact sum.
func (s *Scalar) Add(x float64) {
	if math.IsNaN(x - x) {
		s.nonFinite += x
		return
	}
	s.parts = growExpansion(s.parts, x)
	if top := s.parts[len(s.parts)-1]; math.IsNaN(top - top) {
		s.nonFinite += top
		s.parts = s.parts[:0]
	}
}

// Merge folds another scalar's exact sum into this one; like
// Accumulator.Merge, grouping leaves no trace.
func (s *Scalar) Merge(b *Scalar) {
	for _, v := range b.parts {
		s.Add(v)
	}
	s.nonFinite += b.nonFinite
}

// Round returns the correctly rounded float64 of the exact sum (+0 when
// empty or exactly zero), or the sum of its non-finite terms when there are
// any, leaving the scalar untouched.
func (s *Scalar) Round() float64 {
	if math.IsNaN(s.nonFinite - s.nonFinite) {
		return s.nonFinite
	}
	return roundExpansion(s.parts)
}

// Reset empties the scalar, retaining term capacity.
func (s *Scalar) Reset() { s.parts, s.nonFinite = s.parts[:0], 0 }

// Round writes the correctly rounded float64 value of each coordinate's
// exact sum into dst (grown as needed) and returns it. Where nothing
// spilled that is fl(hi+lo): an IEEE addition returns the correctly rounded
// sum of its two operands, and those two are the whole sum. A coordinate
// that is not live rounds to +0, as does any sum that is exactly zero. The
// accumulator's sum is left untouched, so Round may be called repeatedly and
// Merge may continue afterwards.
//
//cmfl:hotpath
func (a *Accumulator) Round(dst []float64) []float64 {
	dst = slices.Grow(dst[:0], a.dim)[:a.dim]
	if a.dense {
		hi, lo := a.hi[:len(dst)], a.lo[:len(dst)]
		j := 0
		if vectorSweeps {
			j = tensor.ExactRound(dst, hi, lo)
		}
		for ; j < len(dst); j++ {
			dst[j] = positiveZero(hi[j] + lo[j])
		}
	} else {
		clear(dst)
		for w, word := range a.mark {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				dst[j] = positiveZero(a.hi[j] + a.lo[j])
			}
		}
	}
	for j, terms := range a.spill {
		p := append(a.scratch[:0], terms...)
		p = growExpansion(growExpansion(p, a.lo[j]), a.hi[j])
		dst[j], a.scratch = roundExpansion(p), p
	}
	return dst
}

// positiveZero drops the sign of a zero sum, which would only record
// whether its terms were −0, +0 or absent — how sparsely each update arrived.
func positiveZero(v float64) float64 {
	if math.Float64bits(v)<<1 == 0 {
		return 0
	}
	return v
}

// roundExpansion returns the correctly rounded (nearest-even) float64 of a
// non-overlapping increasing-magnitude expansion: sum from the largest term
// down until the addition goes inexact, then apply the half-even correction
// against the next lower term (the lsparts of math.fsum's final rounding).
func roundExpansion(p []float64) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi := p[n]
	var lo float64
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if math.Float64bits(lo)<<1 != 0 {
			break
		}
	}
	// Half-way case: the discarded lo sits exactly between hi and its
	// neighbour; a remaining smaller term of the same sign tips it over.
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		y := lo * 2
		x := hi + y
		yr := x - hi
		if math.Float64bits(y) == math.Float64bits(yr) {
			hi = x
		}
	}
	return positiveZero(hi)
}

// Range is one shard's contiguous half-open client interval.
type Range struct{ Lo, Hi int }

// Len returns the number of clients in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions n clients into k contiguous balanced ranges: the first
// n%k ranges carry one extra client. k must be in [1, n]; every range is
// non-empty so each shard aggregator owns at least one client.
func Split(n, k int) []Range {
	if k < 1 || k > n {
		panic("shard: Split wants 1 <= k <= n")
	}
	out := make([]Range, k)
	size, rem := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}
