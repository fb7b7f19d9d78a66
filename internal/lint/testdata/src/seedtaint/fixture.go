// Package seedtaint exercises the seed-provenance rules: banned raw and
// process-global sources, constant and unique derivation purposes, whole seeds, and the
// blessed-deriver escape hatch for raw seeds crossing package boundaries.
package seedtaint

import (
	mrand "math/rand"

	"cmfl/internal/lint/testdata/src/seedtaint/deriver"
	"cmfl/internal/lint/testdata/src/seedtaint/xrand"
)

func rawSource(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed)) // want "raw math/rand.New in rawSource" "raw math/rand.NewSource in rawSource"
}

//cmfl:deterministic
func aggregate(acc []float64) {
	acc[0] += mrand.Float64() // want "global math/rand source .Float64. in aggregate"
}

// packageRand is not annotated: the global-source ban is package-wide.
func packageRand() int {
	return mrand.Intn(10) // want "global math/rand source .Intn. in packageRand"
}

func drawFrom(r *mrand.Rand) float64 {
	return r.Float64() // silent: a method on an explicit source
}

func bypass(seed int64) *xrand.Stream {
	return xrand.New(seed) // want "xrand.New bypasses stream derivation in bypass"
}

func dynamic(seed int64, purpose string) *xrand.Stream {
	return xrand.Derive(seed, purpose, 1) // want "purpose must be a compile-time constant"
}

func redynamic(c *xrand.Compact, seed int64, purpose string) {
	c.Rederive(seed, purpose, 1) // want "purpose must be a compile-time constant"
}

func arith(seed int64, id int) *xrand.Stream {
	return xrand.Derive(seed+int64(id), "arith-stream", 0) // want "seed arithmetic feeding xrand.Derive"
}

func collide(seed int64) (*xrand.Stream, *xrand.Stream) {
	a := xrand.Derive(seed, "dup-purpose", 0)
	b := xrand.Derive(seed, "dup-purpose", 1) // want "stream purpose .dup-purpose. already used"
	return a, b
}

func recollide(c *xrand.Compact, seed int64) {
	c.Rederive(seed, "dup-purpose", 2) // want "stream purpose .dup-purpose. already used"
}

func blessedHop(seed int64) *xrand.Stream {
	return deriver.ClientStream(seed, 1) // silent: blessed deriver
}

func blessedChain(seed int64) *xrand.Stream {
	return deriver.Chain(seed, 2) // silent: blessed transitively
}

func blessedConversion(seed int, id int) *xrand.Stream {
	return deriver.ClientStream(int64(seed), id) // silent: conversions are transparent
}

func taintedHop(seed int64) *xrand.Stream {
	return deriver.Mix(seed, 3) // want "raw seed crosses the package boundary into deriver.Mix"
}

func configPlumb(seed int64) *deriver.Config {
	cfg := &deriver.Config{Seed: seed}
	deriver.Store(cfg, seed) // silent: Store assigns a Seed-named field
	return cfg
}
