// Package wallclock is a lint fixture for the virtual-clock prover.
package wallclock

import (
	"time"

	"cmfl/internal/lint/testdata/src/wallclock/inner"
)

func direct() time.Duration {
	start := time.Now()          // want "direct calls time.Now directly"
	time.Sleep(time.Millisecond) // want "direct calls time.Sleep directly"
	return time.Since(start)     // want "direct calls time.Since directly"
}

// aggregate is annotated //cmfl:deterministic, but the clock ban is
// package-wide: the annotation neither adds nor waives it.
//
//cmfl:deterministic
func aggregate(acc []float64) {
	_ = time.Now() // want "aggregate calls time.Now directly"
	acc[0]++
}

func inLiteral() {
	f := func() {
		_ = time.Now() // want "inLiteral calls time.Now directly"
	}
	f()
}

func throughHelper() int64 {
	return inner.Stamp() // want "reaches time.Now"
}

// typeUsesAreFine: time's types and constants are not clock reads.
func typeUsesAreFine(d time.Duration) bool {
	return d > time.Millisecond
}
