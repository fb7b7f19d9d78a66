package cmfl_test

import (
	"fmt"
	"math"

	"cmfl/internal/experiments"
	"cmfl/internal/tensor"
)

// firstSaving extracts the first defined saving of a sweep's first point.
func firstSaving(r *experiments.SweepResult) float64 {
	for _, s := range r.Points[0].Savings {
		if !math.IsNaN(s) {
			return s
		}
	}
	return math.NaN()
}

// nnTensor wraps a float slice as a tensor for the LSTM bench.
func nnTensor(data []float64, shape ...int) *tensor.Tensor {
	return tensor.FromSlice(data, shape...)
}

func benchName(prefix string, v int) string { return fmt.Sprintf("%s=%d", prefix, v) }
