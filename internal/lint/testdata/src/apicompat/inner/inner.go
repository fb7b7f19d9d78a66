// Package inner stands for an internal package of the module: the
// apicompat fixture re-exports Opts through a root alias, so Opts's fields
// are under contract, while nothing reaches Helper2.
package inner

// Opts is re-exported as apicompat.Opts. The test's baseline also records
// a Seed field, which is gone.
type Opts struct {
	Rounds int
}

// Helper2 is recorded as Helper in the test's baseline: no alias reaches
// it, so the rename is free.
func Helper2() {}
