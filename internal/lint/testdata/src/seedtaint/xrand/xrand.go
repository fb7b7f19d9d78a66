// Package xrand mirrors the real stream-derivation surface so the
// seed-provenance fixture can exercise the rules without importing the
// module's own xrand. The analyzer matches it by path suffix.
package xrand

import "math/rand"

type Stream struct{ r *rand.Rand }

// New is the raw constructor: banned everywhere except inside this package.
func New(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// Derive keys a stream on (seed, purpose, id).
func Derive(seed int64, purpose string, id int) *Stream {
	h := seed
	for _, c := range purpose {
		h = h*1099511628211 + int64(c)
	}
	return New(h + int64(id)*2654435761)
}

func (s *Stream) Float64() float64 { return s.r.Float64() }

// Compact is a stream that Rederive re-points at a new key.
type Compact struct{ Stream }

// Rederive keys c on (seed, purpose, id), as Derive keys a new stream.
func (c *Compact) Rederive(seed int64, purpose string, id int) { c.Stream = *Derive(seed, purpose, id) }
