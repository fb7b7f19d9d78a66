package nn

import (
	"math"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// Dense is a fully connected layer: y = x·W + b.
//
// Input shape [batch, in]; output shape [batch, out]. Outputs alias a
// persistent per-layer buffer (see scratch.go).
type Dense struct {
	// skipInputGrad is set by Network.Backward when this layer is first in
	// the stack and its input gradient would be discarded.
	skipInputGrad bool

	In, Out int

	w, b   *tensor.Tensor // w: [in, out], b: [out]
	gw, gb *tensor.Tensor

	x *tensor.Tensor // cached forward input

	out, gin *tensor.Tensor // workspace
}

// NewDense creates a dense layer with Glorot-uniform weight initialisation
// drawn from rng, and zero biases.
func NewDense(in, out int, rng *xrand.Stream) *Dense {
	limit := math.Sqrt(6.0 / float64(in+out))
	w, b := tensor.FromSlice(rng.UniformVec(in*out, -limit, limit), in, out), tensor.New(out)
	return &Dense{In: in, Out: out, w: w, b: b, gw: gradOf(w), gb: gradOf(b)}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	batch := x.Dim(0)
	out := ensure(&d.out, batch, d.Out)
	tensor.MatMulInto(out, x, d.w)
	for i := 0; i < batch; i++ {
		row := out.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.b.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	// dW += xᵀ · gradOut ; db += column sums ; dX = gradOut · Wᵀ
	tensor.AddMatMulTransA(d.gw, d.x, gradOut)
	batch := gradOut.Dim(0)
	for i := 0; i < batch; i++ {
		row := gradOut.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.gb.Data[j] += v
		}
	}
	if d.skipInputGrad {
		return nil
	}
	gin := ensure(&d.gin, batch, d.In)
	return tensor.MatMulTransBInto(gin, gradOut, d.w)
}

// setSkipInputGrad implements the nn-internal inputGradSkipper contract: a
// Dense used as the network's first layer omits gradOut·Wᵀ and returns a nil
// input gradient.
func (d *Dense) setSkipInputGrad(skip bool) { d.skipInputGrad = skip }

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.w, d.b} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gw, d.gb} }
