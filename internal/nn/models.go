package nn

import (
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// CNNConfig describes the digit-recognition CNN from the paper (two
// convolution layers, each followed by ReLU and 2×2 max pooling, then a
// hidden dense layer and a classification head).
type CNNConfig struct {
	ImageSize int // input is ImageSize×ImageSize, single channel
	Kernel    int // convolution kernel size (paper: 5)
	Conv1     int // channels of the first convolution
	Conv2     int // channels of the second convolution
	Hidden    int // dense hidden width
	Classes   int
}

// DefaultCNNConfig is the scaled-down MNIST CNN used for fast experiments.
// Paper-scale values (28×28, 5×5 kernels) are reachable through the fields.
func DefaultCNNConfig() CNNConfig {
	return CNNConfig{ImageSize: 14, Kernel: 3, Conv1: 4, Conv2: 8, Hidden: 32, Classes: 10}
}

// NewCNN builds the digit CNN. The layer stack mirrors the paper's MNIST
// model: conv → ReLU → pool → conv → ReLU → pool → dense → ReLU → dense.
func NewCNN(cfg CNNConfig, rng *xrand.Stream) *Network {
	s1 := (cfg.ImageSize - cfg.Kernel + 1) / 2
	s2 := (s1 - cfg.Kernel + 1) / 2
	flat := cfg.Conv2 * s2 * s2
	return NewNetwork(
		NewConv2D(1, cfg.Conv1, cfg.Kernel, rng),
		NewReLU(),
		NewMaxPool2(),
		NewConv2D(cfg.Conv1, cfg.Conv2, cfg.Kernel, rng),
		NewReLU(),
		NewMaxPool2(),
		NewFlatten(),
		NewDense(flat, cfg.Hidden, rng),
		NewReLU(),
		NewDense(cfg.Hidden, cfg.Classes, rng),
	)
}

// LSTMConfig describes the word-level next-word-prediction model (paper:
// 2-layer LSTM with 256 units per layer over a 10-word window).
type LSTMConfig struct {
	Vocab  int
	Embed  int
	Hidden int
	Layers int // number of stacked LSTM layers
}

// DefaultLSTMConfig is the scaled-down next-word model.
func DefaultLSTMConfig(vocab int) LSTMConfig {
	return LSTMConfig{Vocab: vocab, Embed: 16, Hidden: 32, Layers: 2}
}

// NewNextWordLSTM builds embedding → stacked LSTM → dense(vocab).
func NewNextWordLSTM(cfg LSTMConfig, rng *xrand.Stream) *Network {
	layers := []Layer{NewEmbedding(cfg.Vocab, cfg.Embed, rng)}
	in := cfg.Embed
	for i := 0; i < cfg.Layers; i++ {
		returnSeq := i < cfg.Layers-1
		layers = append(layers, NewLSTM(in, cfg.Hidden, returnSeq, rng))
		in = cfg.Hidden
	}
	layers = append(layers, NewDense(cfg.Hidden, cfg.Vocab, rng))
	return NewNetwork(layers...)
}

// NewMLP builds a multilayer perceptron with ReLU activations between the
// given layer widths (e.g. NewMLP(rng, 561, 64, 2)).
func NewMLP(rng *xrand.Stream, widths ...int) *Network {
	var layers []Layer
	for i := 0; i+1 < len(widths); i++ {
		layers = append(layers, NewDense(widths[i], widths[i+1], rng))
		if i+2 < len(widths) {
			layers = append(layers, NewReLU())
		}
	}
	return NewNetwork(layers...)
}

// NewLogistic builds a single-layer linear classifier (softmax trained).
func NewLogistic(in, classes int, rng *xrand.Stream) *Network {
	return NewNetwork(NewDense(in, classes, rng))
}

// TrainBatch runs one SGD step on a classification batch and returns the
// batch loss. Inputs keep whatever shape the first layer expects; labels are
// class indices. The parameters end bit for bit where ZeroGrads, Forward,
// the loss, Backward and SGDStep leave them, but Dense layers step their
// own weights during the backward pass, so only the gradient segments of
// the other layers are cleared and swept here: none for an MLP.
func TrainBatch(net *Network, x *tensor.Tensor, labels []int, lr float64) float64 {
	grads := net.gradVector()
	for _, s := range net.explicit {
		clear(grads[s[0]:s[1]])
	}
	logits := net.Forward(x)
	grad := ensure(&net.lossGrad, logits.Dim(0), logits.Dim(1))
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	net.backward(grad, true, lr)
	for _, s := range net.explicit {
		tensor.Axpy(-lr, grads[s[0]:s[1]], net.params[s[0]:s[1]])
	}
	return loss
}

// Accuracy evaluates classification accuracy of the network on (x, labels).
func Accuracy(net *Network, x *tensor.Tensor, labels []int) float64 {
	logits := net.Forward(x)
	pred := Argmax(logits)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
