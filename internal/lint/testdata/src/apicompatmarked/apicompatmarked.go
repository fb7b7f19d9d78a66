// Package apicompatmarked carries the same baseline mismatches as the
// apicompat fixture plus a reasoned //cmfl:api-change marker: the marker
// records the migration but waives nothing, so the run reports both breaks.
package apicompatmarked

//cmfl:api-change Old now returns int; callers drop the string conversion

// Old's baseline entry (written by the test) claims it returns string.
func Old(n int) int { return n }
