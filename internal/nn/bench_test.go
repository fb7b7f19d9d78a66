package nn

import (
	"fmt"
	"testing"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// convBenchCases are the two convolutions of the paper-scale MNIST CNN
// (28×28 input, 5×5 kernels) at the paper's local batch size B=2.
var convBenchCases = []struct {
	name                string
	batch, inC, outC, k int
	h, w                int
}{
	{"conv1-2x1x28x28-k5x16", 2, 1, 16, 5, 28, 28},
	{"conv2-2x16x12x12-k5x32", 2, 16, 32, 5, 12, 12},
}

// BenchmarkConvForward measures Conv2D.Forward at the MNIST CNN shapes.
func BenchmarkConvForward(b *testing.B) {
	for _, c := range convBenchCases {
		b.Run(c.name, func(b *testing.B) {
			rng := xrand.New(1)
			layer := NewConv2D(c.inC, c.outC, c.k, rng)
			x := tensor.FromSlice(rng.NormVec(c.batch*c.inC*c.h*c.w, 0, 1), c.batch, c.inC, c.h, c.w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(x)
			}
		})
	}
}

// BenchmarkConvBackward measures Conv2D.Backward (weight-gradient and
// input-gradient products) at the same shapes.
func BenchmarkConvBackward(b *testing.B) {
	for _, c := range convBenchCases {
		b.Run(c.name, func(b *testing.B) {
			rng := xrand.New(2)
			layer := inNetwork(NewConv2D(c.inC, c.outC, c.k, rng))
			x := tensor.FromSlice(rng.NormVec(c.batch*c.inC*c.h*c.w, 0, 1), c.batch, c.inC, c.h, c.w)
			out := layer.Forward(x)
			grad := tensor.FromSlice(rng.NormVec(out.Len(), 0, 1), out.Shape...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Backward(grad)
			}
		})
	}
}

// BenchmarkConvStep measures Forward+Backward as one operation on the first
// convolution of the cmfl-bench CNN (1→8 channels, 28×28, 5×5), as a later
// layer (input gradient on): at the training batch, where Backward reads
// Forward's im2col panels back, and at fl.Evaluate's batch of 64, which is
// over the panel budget and unrolls the input twice.
func BenchmarkConvStep(b *testing.B) {
	for _, batch := range []int{2, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			rng := xrand.New(6)
			layer := inNetwork(NewConv2D(1, 8, 5, rng))
			x := tensor.FromSlice(rng.NormVec(batch*28*28, 0, 1), batch, 1, 28, 28)
			out := layer.Forward(x)
			grad := tensor.FromSlice(rng.NormVec(out.Len(), 0, 1), out.Shape...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(x)
				layer.Backward(grad)
			}
		})
	}
}

// BenchmarkMaxPool2Forward measures the 2×2 pool at the two shapes the
// cmfl-bench CNN pools at its training batch of 2.
func BenchmarkMaxPool2Forward(b *testing.B) {
	for _, c := range []struct {
		name     string
		ch, h, w int
	}{{"2x8x24x24", 8, 24, 24}, {"2x16x8x8", 16, 8, 8}} {
		b.Run(c.name, func(b *testing.B) {
			pool := NewMaxPool2()
			x := tensor.FromSlice(xrand.New(7).NormVec(2*c.ch*c.h*c.w, 0, 1), 2, c.ch, c.h, c.w)
			outputs := pool.Forward(x).Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Forward(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(outputs), "ns/output")
		})
	}
}

// BenchmarkDenseStep measures one Dense forward+backward at the CNN head
// shape (flattened conv output → hidden layer, input gradient computed) and
// as the first layer of sim_wide_q8's logistic model (1000 → 100 at batch 8,
// input gradient skipped). Each shape runs twice: accumulating the weight
// gradient, as a gradient check does, and -step, applying the SGD step
// inside Backward, as TrainBatch does (the explicit path's ZeroGrads and
// SGDStep sweeps are not in the first row).
func BenchmarkDenseStep(b *testing.B) {
	for _, c := range []struct {
		name           string
		batch, in, out int
		first          bool
	}{{"cnn-head", 2, 512, 128, false}, {"first-layer", 8, 1000, 100, true}} {
		for _, step := range []bool{false, true} {
			name := c.name
			if step {
				name += "-step"
			}
			b.Run(name, func(b *testing.B) {
				rng := xrand.New(3)
				layer := inNetwork(NewDense(c.in, c.out, rng))
				layer.setSkipInputGrad(c.first)
				layer.setStep(step, 1e-9)
				x := tensor.FromSlice(rng.NormVec(c.batch*c.in, 0, 1), c.batch, c.in)
				grad := tensor.FromSlice(rng.NormVec(c.batch*c.out, 0, 1), c.batch, c.out)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					layer.Forward(x)
					layer.Backward(grad)
				}
			})
		}
	}
}

// BenchmarkLSTMStep measures one training step of the next-word LSTM at a
// scaled paper shape (2 layers over a 10-word window).
func BenchmarkLSTMStep(b *testing.B) {
	cfg := LSTMConfig{Vocab: 500, Embed: 32, Hidden: 64, Layers: 2}
	net := NewNextWordLSTM(cfg, xrand.New(4))
	rng := xrand.New(5)
	batch, window := 5, 10
	ids := make([]float64, batch*window)
	for i := range ids {
		ids[i] = float64(rng.Intn(cfg.Vocab))
	}
	x := tensor.FromSlice(ids, batch, window)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(cfg.Vocab)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainBatch(net, x, labels, 0.1)
	}
}
