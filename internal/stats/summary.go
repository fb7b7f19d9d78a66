package stats

import (
	"fmt"
	"math"
)

// Summary holds streaming moments of a sample (Welford's algorithm), used
// to aggregate experiment metrics across seeds without storing every value.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary. NaN values are ignored.
func (s *Summary) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.n == 0 {
		s.min, s.max = v, v
	}
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
	s.min = math.Min(s.min, v)
	s.max = math.Max(s.max, v)
}

// N returns the number of (non-NaN) observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (NaN when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Std returns the sample standard deviation (NaN for n < 2).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (NaN when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// String renders "mean ± std [min, max] (n)".
func (s *Summary) String() string {
	if s.n == 0 {
		return "n/a"
	}
	if s.n == 1 {
		return fmt.Sprintf("%.3f (n=1)", s.mean)
	}
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] (n=%d)", s.Mean(), s.Std(), s.min, s.max, s.n)
}
