// Package shard provides the numeric core of the emulator's two-tier
// aggregation tree: an exactly-rounded floating-point accumulator whose
// result is independent of how its inputs were grouped across shard
// aggregators, plus the contiguous client-partition helper.
//
// Floating-point addition is not associative, so naive per-shard partial
// sums merged at the root would drift bitwise from a flat server's
// sequential sum — and from each other as the shard count changes. The
// Accumulator sidesteps the problem entirely: each coordinate's running sum
// is kept as a non-overlapping expansion of floats whose total is EXACT
// (Shewchuk's grow-expansion, the same machinery behind Python's
// math.fsum), and Round returns the correctly rounded float64 of that exact
// value. The correctly rounded value of an exact sum is unique, so any
// grouping of the same update multiset — one shard or eight, merged in any
// order — rounds to identical bits. That is the determinism argument that
// lets `Shards: N` reproduce the flat server's FinalParams bit-for-bit
// under the chaos suite.
//
// Memory: an expansion holds one term per distinct "magnitude band" still
// carrying information, not one term per input, so a shard folding each
// accepted update into its accumulator as it arrives needs O(dim · terms)
// floats with terms staying small (single digits for gradient-scale data) —
// flat in the client count, unlike buffering every client's delta.
package shard

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite reports a NaN or ±Inf value offered to an exact sum. Such a
// term never leaves an expansion — every later TwoSum against it stores
// another NaN — so it would grow without bound and poison the aggregate.
var ErrNonFinite = errors.New("shard: non-finite value in update")

// Accumulator sums float64 vectors exactly. The zero value is unusable;
// call New (or Reset on a reused value).
//
// Not safe for concurrent use: in the aggregation tree each shard owns one
// accumulator and the root merges them single-threaded.
type Accumulator struct {
	dim int
	// parts[j] is coordinate j's non-overlapping expansion, ordered by
	// increasing magnitude; its exact real sum equals the exact sum of
	// every value added to coordinate j since the last Reset.
	parts [][]float64
	// maxTerms tracks the widest expansion ever observed (across Resets):
	// the per-coordinate memory high-water mark, exposed so tests can
	// assert shard memory stays flat in the client count.
	maxTerms int
}

// New returns an empty accumulator for dim-dimensional vectors.
func New(dim int) *Accumulator {
	a := &Accumulator{}
	a.Reset(dim)
	return a
}

// Reset empties the accumulator and sets its dimension, retaining the
// per-coordinate term capacity so steady-state reuse does not allocate.
func (a *Accumulator) Reset(dim int) {
	if cap(a.parts) < dim {
		old := a.parts
		a.parts = make([][]float64, dim)
		copy(a.parts, old)
	}
	a.parts = a.parts[:dim]
	for j := range a.parts {
		a.parts[j] = a.parts[j][:0]
	}
	a.dim = dim
}

// Dim returns the accumulator's vector dimension.
func (a *Accumulator) Dim() int { return a.dim }

// MaxTerms returns the largest per-coordinate expansion length observed so
// far — the memory high-water mark in floats per coordinate.
func (a *Accumulator) MaxTerms() int { return a.maxTerms }

// Add folds one vector into the running exact sum. len(vec) must equal Dim.
func (a *Accumulator) Add(vec []float64) {
	if len(vec) != a.dim {
		panic("shard: Add dimension mismatch")
	}
	for j, v := range vec {
		a.add1(j, v)
	}
}

// AddSparse folds the vector holding vals[n] at coordinate idx[n] and zero
// elsewhere — a sparse codec's view of an update — touching only the named
// coordinates. idx must be strictly ascending and below Dim, vals finite
// (ErrNonFinite); a vector failing either is rejected before any coordinate
// changes.
//
// Round afterwards is bit for bit what it is after Add of the densified
// vector: a zero never changes an expansion's exact sum, so the coordinates
// Add would walk with one are skipped, and an exact sum has no memory of
// which terms arrived densely. Signed zero is all a skipped +0 could change,
// and Round leaves it nothing: a sum that is exactly zero rounds to +0
// whether untouched, fed only −0, or cancelled. MaxTerms is outside the
// equivalence — a passing zero can merge two terms that fit in one float.
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
	for n, j := range idx {
		a.add1(int(j), vals[n])
	}
	return nil
}

// Merge folds another accumulator's exact sum into this one. Every term of
// an expansion is an ordinary float64 whose re-insertion is exact, so the
// merged accumulator represents precisely the union of both input
// multisets — grouping leaves no trace.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.dim != a.dim {
		panic("shard: Merge dimension mismatch")
	}
	for j, terms := range b.parts {
		for _, v := range terms {
			a.add1(j, v)
		}
	}
}

// add1 grows coordinate j's expansion by x.
func (a *Accumulator) add1(j int, x float64) {
	p := growExpansion(a.parts[j], x)
	a.parts[j] = p
	if len(p) > a.maxTerms {
		a.maxTerms = len(p)
	}
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
	//cmfl:lint-ignore hotpathalloc amortized grow-only: Reset keeps each coordinate's term capacity, so steady-state rounds append in place
	return append(p[:i], x)
}

// Scalar sums float64 values exactly: the one-component sibling of
// Accumulator, for the scalar round statistics (loss and relevance sums)
// that ride alongside the vector aggregate and must be just as
// grouping-invariant. Unlike Accumulator, the zero value is empty and
// ready to use.
//
// Not safe for concurrent use.
type Scalar struct {
	parts []float64
}

// Add folds one value into the running exact sum.
func (s *Scalar) Add(x float64) { s.parts = growExpansion(s.parts, x) }

// Merge folds another scalar's exact sum into this one; like
// Accumulator.Merge, grouping leaves no trace.
func (s *Scalar) Merge(b *Scalar) {
	for _, v := range b.parts {
		s.parts = growExpansion(s.parts, v)
	}
}

// Round returns the correctly rounded float64 of the exact sum (+0 when
// empty or exactly zero), leaving the scalar untouched.
func (s *Scalar) Round() float64 { return roundExpansion(s.parts) }

// Reset empties the scalar, retaining term capacity.
func (s *Scalar) Reset() { s.parts = s.parts[:0] }

// Round writes the correctly rounded float64 value of each coordinate's
// exact sum into dst (grown as needed) and returns it. An empty coordinate
// rounds to +0, as does any sum that is exactly zero. The accumulator is
// left untouched, so Round may be called repeatedly and Merge may continue
// afterwards.
func (a *Accumulator) Round(dst []float64) []float64 {
	if cap(dst) < a.dim {
		dst = make([]float64, a.dim)
	}
	dst = dst[:a.dim]
	for j, p := range a.parts {
		dst[j] = roundExpansion(p)
	}
	return dst
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
	// The sign of a zero sum would only record whether its terms were −0, +0
	// or absent — how sparsely each update arrived — so it is dropped.
	if math.Float64bits(hi)<<1 == 0 {
		return 0
	}
	return hi
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
