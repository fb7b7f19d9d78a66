// Package nn is a small, dependency-free neural-network library with manual
// backpropagation.
//
// It provides the layers needed to reproduce the CMFL paper's workloads: a
// convolutional digit classifier (MNIST-style CNN), a word-level LSTM
// language model, and linear/logistic models for the multi-task experiments.
// Every layer implements Layer; a Network chains layers and exposes its
// parameters as one flat []float64 vector, which is the unit of exchange in
// the federated-learning packages (updates are deltas of this vector).
//
// Gradients are verified against numerical differentiation in the test
// suite, so the federated results downstream rest on checked calculus rather
// than trust.
package nn

import (
	"fmt"

	"cmfl/internal/tensor"
)

// Layer is a differentiable computation stage.
//
// Forward consumes an activation tensor and returns the next activation.
// Backward consumes the gradient of the loss with respect to the layer's
// output, accumulates gradients of the layer's parameters, and returns the
// gradient with respect to the layer's input. A Backward call must be
// preceded by the matching Forward call (layers cache forward state).
type Layer interface {
	// Forward computes the layer output for input x.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward propagates gradOut (dLoss/dOutput) and returns dLoss/dInput.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
}

// Network is an ordered sequence of layers trained end to end.
type Network struct {
	layers []Layer

	lossGrad *tensor.Tensor // TrainBatch scratch (see scratch.go)
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{layers: layers}
}

// Layers returns the underlying layer slice (shared, not copied).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs all layers in order.
//
//cmfl:hotpath
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// inputGradSkipper is implemented by layers that can omit their input
// gradient. The first layer's input gradient is never consumed, so Backward
// tells it to skip that work (for Conv2D: the dcols product and the col2im
// scatter — a measurable share of a CNN training step; for Dense: the
// gradOut·Wᵀ product, a third of a logistic model's arithmetic).
type inputGradSkipper interface {
	setSkipInputGrad(bool)
}

// Backward propagates the output gradient through all layers in reverse.
//
//cmfl:hotpath
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(n.layers) > 0 {
		if s, ok := n.layers[0].(inputGradSkipper); ok {
			s.setSkipInputGrad(true)
		}
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	return grad
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		for _, p := range l.Params() {
			total += p.Len()
		}
	}
	return total
}

// ParamSegments returns the length of each parameter tensor in ParamVector
// order, so callers can address per-tensor segments of the flat vector
// (e.g. layerwise partial uploads).
func (n *Network) ParamSegments() []int {
	var segs []int
	for _, l := range n.layers {
		for _, p := range l.Params() {
			segs = append(segs, p.Len())
		}
	}
	return segs
}

// ParamVector copies all parameters into one flat vector.
func (n *Network) ParamVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.layers {
		for _, p := range l.Params() {
			out = append(out, p.Data...)
		}
	}
	return out
}

// SetParamVector overwrites all parameters from a flat vector produced by
// ParamVector. It returns an error if the length does not match.
func (n *Network) SetParamVector(v []float64) error {
	if len(v) != n.NumParams() {
		return fmt.Errorf("nn: parameter vector has %d elements, network has %d", len(v), n.NumParams())
	}
	off := 0
	for _, l := range n.layers {
		for _, p := range l.Params() {
			copy(p.Data, v[off:off+p.Len()])
			off += p.Len()
		}
	}
	return nil
}

// GradVector copies all accumulated gradients into one flat vector aligned
// with ParamVector.
func (n *Network) GradVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.layers {
		for _, g := range l.Grads() {
			out = append(out, g.Data...)
		}
	}
	return out
}

// ZeroGrads resets all accumulated gradients.
//
//cmfl:hotpath
func (n *Network) ZeroGrads() {
	for _, l := range n.layers {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
}

// SGDStep applies one vanilla SGD update: p -= lr * grad.
//
//cmfl:hotpath
func (n *Network) SGDStep(lr float64) {
	for _, l := range n.layers {
		params, grads := l.Params(), l.Grads()
		for i, p := range params {
			p.AxpyInPlace(-lr, grads[i])
		}
	}
}

// DecayToward pulls every parameter toward the flat target vector:
// p -= factor * (p - target). This is the FedProx proximal correction
// applied in place, equivalent to (but allocation-free compared with)
// round-tripping through ParamVector/SetParamVector.
func (n *Network) DecayToward(target []float64, factor float64) error {
	if len(target) != n.NumParams() {
		return fmt.Errorf("nn: target vector has %d elements, network has %d", len(target), n.NumParams())
	}
	off := 0
	for _, l := range n.layers {
		for _, p := range l.Params() {
			seg := target[off : off+p.Len()]
			for i := range p.Data {
				p.Data[i] -= factor * (p.Data[i] - seg[i])
			}
			off += p.Len()
		}
	}
	return nil
}
