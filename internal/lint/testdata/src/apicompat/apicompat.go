// Package apicompat is the surface the baseline-diff tests snapshot: the
// test writes a baseline that disagrees with Old's result type and
// records a Removed symbol that no longer exists, then asserts exactly
// one finding for each. The reasonless marker below is the third
// expected finding — a waiver that carries no migration story is itself
// a defect.
package apicompat

import "cmfl/internal/lint/testdata/src/apicompat/inner"

//cmfl:api-change

// Old's baseline entry (written by the test) claims it returns string.
func Old(n int) int { return n }

// Cfg matches its baseline entries exactly.
type Cfg struct {
	Limit int
}

// Grown is absent from the baseline: additions are never findings.
func Grown() {}

// Opts re-exports a type of another module package: its fields are part of
// this package's surface.
type Opts = inner.Opts
