package nn

import (
	"math"
	"os"
	"os/exec"
	"testing"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// explicitStep is the SGD step TrainBatch fuses: clear every gradient,
// forward, loss, backward into the gradient vector, one sweep over it.
func explicitStep(net *Network, x *tensor.Tensor, labels []int, lr float64) float64 {
	net.ZeroGrads()
	logits := net.Forward(x)
	grad := ensure(&net.lossGrad, logits.Dim(0), logits.Dim(1))
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	net.Backward(grad)
	net.SGDStep(lr)
	return loss
}

// TestTrainBatchMatchesExplicitStep: TrainBatch, where Dense layers step
// their own weights inside Backward, leaves every parameter bit where the
// explicit ZeroGrads/Forward/loss/Backward/SGDStep sequence leaves it, and
// returns the same losses. Each model trains twice from one seed for several
// batches, one network each way, and the cases cover a Dense that is first
// (its input gradient skipped) and one behind a parameterless layer (input
// gradient formed and discarded), beside Conv2D, Embedding and LSTM layers,
// whose segments TrainBatch still clears and sweeps itself. The test runs on
// the AVX-512 kernels where the CPU has them, then reruns itself with
// CMFL_NOSIMD=1 so that the portable loops are held to the same identity.
func TestTrainBatchMatchesExplicitStep(t *testing.T) {
	type model struct {
		name    string
		build   func() *Network
		input   func(rng *xrand.Stream, batch int) *tensor.Tensor
		classes int
	}
	dense := func(in int) func(rng *xrand.Stream, batch int) *tensor.Tensor {
		return func(rng *xrand.Stream, batch int) *tensor.Tensor {
			return tensor.FromSlice(rng.NormVec(batch*in, 0, 1), batch, in)
		}
	}
	cnn := DefaultCNNConfig()
	lstm := DefaultLSTMConfig(30)
	models := []model{
		{"logistic", func() *Network { return NewLogistic(40, 6, xrand.New(1)) }, dense(40), 6},
		{"mlp", func() *Network { return NewMLP(xrand.New(2), 24, 33, 17, 5) }, dense(24), 5},
		{"mlp-behind-relu", func() *Network {
			return NewNetwork(NewReLU(), NewDense(24, 9, xrand.New(3)), NewReLU(), NewDense(9, 4, xrand.New(4)))
		}, dense(24), 4},
		{"cnn", func() *Network { return NewCNN(cnn, xrand.New(5)) }, func(rng *xrand.Stream, batch int) *tensor.Tensor {
			return tensor.FromSlice(rng.NormVec(batch*cnn.ImageSize*cnn.ImageSize, 0, 1), batch, 1, cnn.ImageSize, cnn.ImageSize)
		}, cnn.Classes},
		{"lstm", func() *Network { return NewNextWordLSTM(lstm, xrand.New(6)) }, func(rng *xrand.Stream, batch int) *tensor.Tensor {
			ids := make([]float64, batch*5)
			for i := range ids {
				ids[i] = float64(rng.Intn(lstm.Vocab))
			}
			return tensor.FromSlice(ids, batch, 5)
		}, lstm.Vocab},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			fused, ref := m.build(), m.build()
			rng := xrand.New(7)
			for step := range 6 {
				batch := 1 + step%4
				x := m.input(rng, batch)
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = rng.Intn(m.classes)
				}
				lr := 0.05 * float64(1+step%3)
				got := TrainBatch(fused, x.Clone(), labels, lr)
				want := explicitStep(ref, x.Clone(), labels, lr)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v, want %v", step, got, want)
				}
				p, q := fused.ParamVector(), ref.ParamVector()
				for i := range p {
					if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
						t.Fatalf("step %d: parameter %d = %v, want %v", step, i, p[i], q[i])
					}
				}
			}
			// Every model here holds its Dense layers last, so what TrainBatch
			// sweeps itself is one leading segment or nothing.
			var want [][2]int
			if n := fused.NumParams() - denseParams(fused); n > 0 {
				want = [][2]int{{0, n}}
			}
			if len(fused.explicit) != len(want) || (len(want) > 0 && fused.explicit[0] != want[0]) {
				t.Fatalf("explicit gradient segments %v, want %v", fused.explicit, want)
			}
		})
	}
	if os.Getenv("CMFL_NOSIMD") != "1" && !t.Failed() {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTrainBatchMatchesExplicitStep$", "-test.count=1")
		cmd.Env = append(os.Environ(), "CMFL_NOSIMD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("with CMFL_NOSIMD=1: %v\n%s", err, out)
		}
	}
}

// denseParams counts the parameters of net's Dense layers.
func denseParams(net *Network) int {
	n := 0
	for _, l := range net.Layers() {
		if d, ok := l.(*Dense); ok {
			n += d.In*d.Out + d.Out
		}
	}
	return n
}

// TestBackwardAfterTrainBatchAccumulates: the step mode TrainBatch sets
// does not outlive it. A Backward that follows accumulates the Dense weight
// gradient and leaves the weights alone.
func TestBackwardAfterTrainBatchAccumulates(t *testing.T) {
	rng := xrand.New(8)
	net := NewLogistic(5, 3, rng)
	x := tensor.FromSlice(rng.NormVec(2*5, 0, 1), 2, 5)
	labels := []int{0, 2}
	TrainBatch(net, x.Clone(), labels, 0.1)
	before := net.ParamVector()
	net.ZeroGrads()
	_, grad := SoftmaxCrossEntropy(net.Forward(x.Clone()), labels)
	net.Backward(grad)
	for i, v := range net.ParamVector() {
		if v != before[i] {
			t.Fatalf("Backward moved parameter %d", i)
		}
	}
	nonzero := 0
	for _, g := range net.GradVector()[:15] {
		if g != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("Backward after TrainBatch left the weight gradient zero")
	}
}

// TestDeltaIntoMatchesParamsIntoAxpy: the solver's one-pass delta has the
// bits of the copy-then-Axpy(-1) it replaces, on both paths (the vector
// Axpy is fma(−1, b, p), the portable one p + (−1·b)), with signed zeros,
// infinities and NaNs among the parameters and the base, and it reuses a
// destination with room.
func TestDeltaIntoMatchesParamsIntoAxpy(t *testing.T) {
	net := NewLogistic(40, 6, xrand.New(9))
	rng := xrand.New(10)
	edge := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
	params, base := net.ParamVector(), rng.NormVec(net.NumParams(), 0, 1)
	for i := range edge {
		params[3*i] = edge[i]
		base[3*i+1] = edge[i]
		params[3*i+2], base[3*i+2] = edge[i], edge[(i+3)%len(edge)]
	}
	if err := net.SetParamVector(params); err != nil {
		t.Fatal(err)
	}
	want := net.ParamsInto(nil)
	tensor.Axpy(-1, base, want)
	buf := make([]float64, 0, len(params)+5)
	got := net.DeltaInto(buf, base)
	if &got[0] != &buf[:1][0] {
		t.Fatal("DeltaInto did not reuse a destination with room")
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("coordinate %d: %v − %v = %v, want %v", i, params[i], base[i], got[i], want[i])
		}
	}
}
