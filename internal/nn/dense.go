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
	// step and lr are set by the network's backward pass: in TrainBatch a
	// Dense applies its own SGD step, w −= lr·xᵀ·gradOut, inside Backward.
	step bool
	lr   float64

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

// Backward implements Layer. Outside TrainBatch it accumulates dW += xᵀ·
// gradOut and db += column sums of gradOut. In TrainBatch it steps instead:
// the weights move by −lr·xᵀ·gradOut in one sweep, no weight gradient is
// stored, and the bias by −lr times the column sums, formed in the bias
// gradient. Either way dX = gradOut·Wᵀ comes from the weights Forward used.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	batch := gradOut.Dim(0)
	var gin *tensor.Tensor
	if !d.skipInputGrad {
		gin = tensor.MatMulTransBInto(ensure(&d.gin, batch, d.In), gradOut, d.w)
	}
	if d.step {
		tensor.StepMatMulTransA(d.w, d.x, gradOut, -d.lr)
		clear(d.gb.Data)
	} else {
		tensor.AddMatMulTransA(d.gw, d.x, gradOut)
	}
	for i := 0; i < batch; i++ {
		row := gradOut.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.gb.Data[j] += v
		}
	}
	if d.step {
		tensor.Axpy(-d.lr, d.gb.Data, d.b.Data)
	}
	return gin
}

// setSkipInputGrad implements the nn-internal inputGradSkipper contract: a
// Dense used as the network's first layer omits gradOut·Wᵀ and returns a nil
// input gradient.
func (d *Dense) setSkipInputGrad(skip bool) { d.skipInputGrad = skip }

// setStep implements the nn-internal weightStepper contract.
func (d *Dense) setStep(step bool, lr float64) { d.step, d.lr = step, lr }

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.w, d.b} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gw, d.gb} }
