package tensor

import (
	"math"
	"math/rand"
)

// gemmEdgeValues adds NaNs of four more payloads, both signs and a
// signalling one among them, to signEdgeValues: when two NaNs meet in an
// FMA or an add, which payload survives depends on the operand order, so
// only distinct payloads show a kernel that reorders its operands.
var gemmEdgeValues = append([]float64{
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456),
	math.Float64frombits(0x7ff0000000000789), math.Float64frombits(0xfff0000000000abc),
}, signEdgeValues...)

// edgeOperand is a rows×cols tensor of normal draws with about one element
// in every edges taken from gemmEdgeValues.
func edgeOperand(rng *rand.Rand, rows, cols, edges int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		if rng.Intn(edges) == 0 {
			t.Data[i] = gemmEdgeValues[rng.Intn(len(gemmEdgeValues))]
		} else {
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

// gemmCase is one product of the bit-identity tests: its layout and op.
type gemmCase struct {
	name   string
	layout gemmLayout
	op     gemmOp
}

var gemmCases = []gemmCase{
	{"NN", layoutNN, gemmSet}, {"NN+", layoutNN, gemmAdd},
	{"TA", layoutTA, gemmSet}, {"TA+", layoutTA, gemmAdd},
	{"TB", layoutTB, gemmSet}, {"TB+", layoutTB, gemmAdd},
	{"step", layoutTA, gemmStep},
}

// randProduct draws operands for an m×k×n product (a and b sized for any
// layout) and a destination, with about one element in every edges an
// edge value.
func randProduct(rng *rand.Rand, m, k, n, edges int) product {
	return product{
		a:     edgeOperand(rng, m, k, edges).Data,
		b:     edgeOperand(rng, k, n, edges).Data,
		dst:   edgeOperand(rng, m, n, edges).Data,
		k:     k,
		m:     m,
		n:     n,
		alpha: -0.05,
	}
}

// firstBitDiff returns the first index where got and want differ in their
// bits, or −1.
func firstBitDiff(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}
