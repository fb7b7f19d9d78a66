// Package nn is a small, dependency-free neural-network library with manual
// backpropagation.
//
// It provides the layers needed to reproduce the CMFL paper's workloads: a
// convolutional digit classifier (MNIST-style CNN), a word-level LSTM
// language model, and linear/logistic models for the multi-task experiments.
// Every layer implements Layer; a Network chains layers and stores all their
// parameters in one flat []float64 and their gradients in a second, each
// layer tensor a view of its segment. That vector is the unit of exchange in
// the federated-learning packages (updates are deltas of it), and training
// is plain SGD over it.
//
// Gradients are verified against numerical differentiation in the test
// suite, so the federated results downstream rest on checked calculus rather
// than trust.
package nn

import (
	"fmt"
	"slices"

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
	// Params returns the layer's parameter tensors (possibly empty). Every
	// call returns the same tensors, and the layer reads their Data afresh
	// on each pass: NewNetwork repoints it into the network's flat vector.
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params, on the same terms.
	// They have storage once the layer's Network first trains.
	Grads() []*tensor.Tensor
}

// gradOf returns the gradient tensor of parameter p: p's shape and no
// storage, which the network supplies from its gradient vector.
func gradOf(p *tensor.Tensor) *tensor.Tensor { return &tensor.Tensor{Shape: p.Shape} }

// Network is an ordered sequence of layers trained end to end. Its
// parameters are one flat vector and its gradients another, aligned with it:
// every layer's parameter and gradient tensors are views of their segment of
// the two, so loading, reading and stepping the model are single sweeps over
// one []float64. Each view's capacity ends with its segment, so no append
// can reach into the next one.
type Network struct {
	layers []Layer

	params []float64
	grads  []float64 // nil until the first pass that needs it (gradVector)

	// The layers that step their own weights in TrainBatch, and the
	// [lo, hi) gradient segments of all other layers, adjacent ones merged,
	// which TrainBatch clears and sweeps itself.
	steppers []weightStepper
	explicit [][2]int

	lossGrad *tensor.Tensor // TrainBatch scratch (see scratch.go)
}

// NewNetwork builds a network from the given layers. It allocates the flat
// parameter vector, copies each layer's initial parameters in, layer by
// layer and tensor by tensor, points the layer's parameter tensors at their
// segments, and records which layers step themselves in TrainBatch.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{layers: layers}
	dim := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			dim += p.Len()
		}
	}
	n.params = make([]float64, dim)
	off := 0
	for _, l := range layers {
		lo := off
		for _, p := range l.Params() {
			end := off + p.Len()
			copy(n.params[off:end], p.Data)
			p.Data = n.params[off:end:end]
			off = end
		}
		switch s, ok := l.(weightStepper); {
		case ok:
			n.steppers = append(n.steppers, s)
		case off > lo && len(n.explicit) > 0 && n.explicit[len(n.explicit)-1][1] == lo:
			n.explicit[len(n.explicit)-1][1] = off // the previous layer's segment grows
		case off > lo:
			n.explicit = append(n.explicit, [2]int{lo, off})
		}
	}
	return n
}

// gradVector returns the gradient vector. The first call allocates it and
// points every gradient tensor at its segment, so a network that only
// evaluates (a server's global model) never holds one.
//
//cmfl:hotpath
func (n *Network) gradVector() []float64 {
	if n.grads == nil {
		n.grads = slices.Grow(n.grads, len(n.params))[:len(n.params)] // once per network
		off := 0
		for _, l := range n.layers {
			ps := l.Params()
			for i, g := range l.Grads() {
				end := off + ps[i].Len()
				g.Data = n.grads[off:end:end]
				off = end
			}
		}
	}
	return n.grads
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

// weightStepper is implemented by layers that can apply their SGD step
// inside Backward instead of accumulating a gradient for SGDStep to read
// back: a Dense layer's weights then take one sweep a step, not three.
// TrainBatch turns the mode on; Backward turns it off, so gradient checks
// and explicit ZeroGrads/Backward/SGDStep loops see plain gradients.
type weightStepper interface {
	setStep(step bool, lr float64)
}

// Backward propagates the output gradient through all layers in reverse,
// accumulating every layer's parameter gradients.
//
//cmfl:hotpath
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return n.backward(grad, false, 0)
}

// backward is Backward, with the weightSteppers stepping by lr when step.
//
//cmfl:hotpath
func (n *Network) backward(grad *tensor.Tensor, step bool, lr float64) *tensor.Tensor {
	n.gradVector()
	for _, s := range n.steppers {
		s.setStep(step, lr)
	}
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
func (n *Network) NumParams() int { return len(n.params) }

// ParamVector returns a copy of the parameter vector.
func (n *Network) ParamVector() []float64 { return append([]float64(nil), n.params...) }

// ParamsInto copies the parameter vector into dst, reusing its backing array
// when the capacity suffices, and returns the filled slice.
func (n *Network) ParamsInto(dst []float64) []float64 {
	return append(dst[:0], n.params...)
}

// DeltaInto writes the parameters minus base into dst, reusing its backing
// array when the capacity suffices, and returns the filled slice: a local
// update in one pass. A single subtraction rounds exactly as fma(−1, b, p)
// and as p + (−1·b) do, so the bits are those of ParamsInto followed by
// tensor.Axpy(-1, base, dst). base must be as long as the parameter vector.
func (n *Network) DeltaInto(dst, base []float64) []float64 {
	if len(base) != len(n.params) {
		panic(fmt.Sprintf("nn: base vector has %d elements, network has %d", len(base), len(n.params)))
	}
	params := n.params
	dst = slices.Grow(dst[:0], len(params))[:len(params)]
	base = base[:len(params)]
	for i := range params {
		dst[i] = params[i] - base[i]
	}
	return dst
}

// SetParamVector overwrites all parameters from a flat vector produced by
// ParamVector. It returns an error if the length does not match.
func (n *Network) SetParamVector(v []float64) error {
	if len(v) != len(n.params) {
		return fmt.Errorf("nn: parameter vector has %d elements, network has %d", len(v), len(n.params))
	}
	copy(n.params, v)
	return nil
}

// GradVector returns a copy of the accumulated gradients, aligned with
// ParamVector.
func (n *Network) GradVector() []float64 { return append([]float64(nil), n.gradVector()...) }

// ZeroGrads resets all accumulated gradients.
//
//cmfl:hotpath
func (n *Network) ZeroGrads() { clear(n.gradVector()) }

// SGDStep applies one vanilla SGD update: p -= lr * grad. Axpy rounds each
// coordinate alone (one fused multiply-add in the vector body and the masked
// tail alike, one multiply and add in the portable loop), so the flat sweep
// gives the bits a per-tensor sweep would.
//
//cmfl:hotpath
func (n *Network) SGDStep(lr float64) { tensor.Axpy(-lr, n.gradVector(), n.params) }

// DecayToward pulls every parameter toward the flat target vector:
// p -= factor * (p - target). This is the FedProx proximal correction
// applied in place.
func (n *Network) DecayToward(target []float64, factor float64) error {
	if len(target) != len(n.params) {
		return fmt.Errorf("nn: target vector has %d elements, network has %d", len(target), len(n.params))
	}
	for i, g := range target {
		n.params[i] -= factor * (n.params[i] - g)
	}
	return nil
}
