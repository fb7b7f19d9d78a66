// Package xrand provides deterministic, splittable pseudo-random streams.
//
// Federated experiments need many independent random streams (one per
// client, per dataset, per round) that are reproducible from a single
// experiment seed. xrand derives child streams by hashing a (seed, purpose,
// id) triple with FNV-1a, so streams are stable across runs and independent
// of creation order.
package xrand

import (
	"hash/fnv"
	"math/rand"
)

// Stream is a deterministic source of pseudo-random values.
//
// A Stream wraps math/rand with convenience methods used across the
// repository (Gaussian draws, permutations, categorical sampling). It is not
// safe for concurrent use; derive one Stream per goroutine.
type Stream struct {
	rng *rand.Rand
}

// New returns a Stream seeded directly with seed.
func New(seed int64) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(seed))}
}

// Derive returns a child Stream keyed by (seed, purpose, id).
//
// Two Derive calls with equal arguments yield identical streams; changing
// any argument yields a statistically independent stream.
func Derive(seed int64, purpose string, id int) *Stream {
	return New(int64(key(seed, purpose, id)))
}

// DeriveCompact returns a child Stream keyed by (seed, purpose, id) like
// Derive, but backed by a splitmix64 generator whose state is a single
// uint64 instead of math/rand's ~5 KB lagged-Fibonacci table. Use it when
// a population holds one stream per client — a million-client simulation
// pays 8 bytes per client instead of 5 GB — and Derive when bit-compat
// with existing Derive-seeded experiments matters. The two constructors
// yield different sequences for equal arguments by design. The Stream,
// its rand.Rand and the generator are one allocation.
func DeriveCompact(seed int64, purpose string, id int) *Stream {
	c := new(Compact)
	c.seed(key(seed, purpose, id))
	return &c.Stream
}

// Compact is what DeriveCompact allocates: the Stream it returns and
// everything that Stream points to, side by side. A caller that walks many
// (seed, purpose, id) keys one after another holds one Compact and
// re-points it at each key with Rederive instead of allocating a stream per
// key. The zero value is ready for Rederive; a Compact must not be copied
// once in use.
type Compact struct {
	Stream
	rng rand.Rand
	src splitmix64
}

// Rederive re-points c at key (seed, purpose, id): whatever c drew before,
// it then draws exactly what DeriveCompact(seed, purpose, id) would. It
// allocates nothing.
func (c *Compact) Rederive(seed int64, purpose string, id int) { c.seed(key(seed, purpose, id)) }

// seed points c at generator state state, with a fresh rand.Rand over it.
func (c *Compact) seed(state uint64) {
	c.src.state = state
	c.rng = *rand.New(&c.src)
	c.Stream.rng = &c.rng
}

// key hashes (seed, purpose, id) with 64-bit FNV-1a: the seed's eight
// little-endian bytes, the purpose's bytes, then the id's.
func key(seed int64, purpose string, id int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(purpose))
	putUint64(buf[:], uint64(id))
	h.Write(buf[:])
	return h.Sum64()
}

// splitmix64 is Steele et al.'s SplitMix generator: 8 bytes of state, full
// 2^64 period, passes BigCrush. It implements rand.Source64 so math/rand
// draws whole words instead of pairing Int63s.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (s *Stream) Int63() int64 { return s.rng.Int63() }

// Norm returns a standard normal draw.
func (s *Stream) Norm() float64 { return s.rng.NormFloat64() }

// NormVec fills a fresh slice of length n with N(mu, sigma^2) draws.
func (s *Stream) NormVec(n int, mu, sigma float64) []float64 {
	return s.NormVecInto(make([]float64, n), mu, sigma)
}

// NormVecInto fills dst with N(mu, sigma^2) draws, the ones NormVec(len(dst),
// mu, sigma) would return, and returns it.
func (s *Stream) NormVecInto(dst []float64, mu, sigma float64) []float64 {
	for i := range dst {
		dst[i] = mu + sigma*s.rng.NormFloat64()
	}
	return dst
}

// UniformVec fills a fresh slice of length n with U[lo, hi) draws.
func (s *Stream) UniformVec(n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*s.rng.Float64()
	}
	return v
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.PermInto(nil, n) }

// PermInto writes a random permutation of [0, n) into dst, reusing its
// backing array when the capacity suffices, and returns it. It draws from
// the stream exactly as math/rand's Perm does, so both yield the same
// permutation and leave the stream in the same state.
//
//cmfl:hotpath
func (s *Stream) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		//cmfl:lint-ignore hotpathalloc grows once to the largest n a caller asks for; steady state reuses dst
		dst = make([]int, n)
	}
	m := dst[:n]
	for i := range m {
		j := s.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Categorical samples an index proportionally to the non-negative weights.
// A zero-sum weight vector falls back to the uniform distribution.
func (s *Stream) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.rng.Intn(len(weights))
	}
	r := s.rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}
