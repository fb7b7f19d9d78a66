package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

func TestParamVectorRoundTrip(t *testing.T) {
	rng := xrand.New(10)
	net := NewCNN(CNNConfig{ImageSize: 12, Kernel: 3, Conv1: 2, Conv2: 3, Hidden: 8, Classes: 4}, rng)
	v := net.ParamVector()
	if len(v) != net.NumParams() {
		t.Fatalf("ParamVector length %d != NumParams %d", len(v), net.NumParams())
	}
	// Perturb and write back.
	for i := range v {
		v[i] += 0.5
	}
	if err := net.SetParamVector(v); err != nil {
		t.Fatalf("SetParamVector: %v", err)
	}
	got := net.ParamVector()
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("param %d = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestSetParamVectorLengthError(t *testing.T) {
	rng := xrand.New(11)
	net := NewLogistic(4, 2, rng)
	if err := net.SetParamVector(make([]float64, 3)); err == nil {
		t.Fatal("expected error for wrong vector length")
	}
}

func TestZeroGrads(t *testing.T) {
	rng := xrand.New(12)
	net := NewNetwork(NewDense(3, 2, rng))
	x := tensor.FromSlice(rng.NormVec(2*3, 0, 1), 2, 3)
	logits := net.Forward(x)
	_, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	net.Backward(grad)
	nonzero := false
	for _, g := range net.GradVector() {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("expected nonzero gradients after backward")
	}
	net.ZeroGrads()
	for i, g := range net.GradVector() {
		if g != 0 {
			t.Fatalf("grad %d = %v after ZeroGrads", i, g)
		}
	}
}

// TestDenseFirstLayerSkipsInputGrad: a Dense first in its network returns no
// input gradient, and its parameter gradients are the bits of the same layer
// behind a Flatten (which passes a 2-D batch through unchanged, so there the
// Dense is not first and computes gradOut·Wᵀ).
func TestDenseFirstLayerSkipsInputGrad(t *testing.T) {
	x := tensor.FromSlice(xrand.New(8).NormVec(4*6, 0, 1), 4, 6)
	labels := []int{0, 2, 1, 2}
	build := func(first ...Layer) *Network {
		return NewNetwork(append(first, NewDense(6, 5, xrand.New(9)), NewReLU(), NewDense(5, 3, xrand.New(10)))...)
	}
	var grads [2][]float64
	for k, net := range []*Network{build(), build(NewFlatten())} {
		_, grad := SoftmaxCrossEntropy(net.Forward(x.Clone()), labels)
		if gin := net.Backward(grad); (gin == nil) != (k == 0) {
			t.Fatalf("network %d: input gradient %v", k, gin)
		}
		grads[k] = net.GradVector()
	}
	for i := range grads[0] {
		if math.Float64bits(grads[0][i]) != math.Float64bits(grads[1][i]) {
			t.Fatalf("gradient %d: %v as the first layer, %v behind a Flatten", i, grads[0][i], grads[1][i])
		}
	}
}

func TestSGDStepMovesAgainstGradient(t *testing.T) {
	rng := xrand.New(13)
	net := NewLogistic(3, 2, rng)
	x := tensor.FromSlice(rng.NormVec(4*3, 0, 1), 4, 3)
	labels := []int{0, 1, 0, 1}
	lossBefore, _ := SoftmaxCrossEntropy(net.Forward(x.Clone()), labels)
	for i := 0; i < 50; i++ {
		TrainBatch(net, x.Clone(), labels, 0.5)
	}
	lossAfter, _ := SoftmaxCrossEntropy(net.Forward(x.Clone()), labels)
	if lossAfter >= lossBefore {
		t.Fatalf("loss did not decrease: %v -> %v", lossBefore, lossAfter)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0}, 1, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(grad.Data[0]-(-0.5)) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("grad = %v, want [-0.5 0.5]", grad.Data)
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, -1000, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v, want finite", loss)
	}
	for i, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatalf("grad %d is NaN", i)
		}
	}
}

func TestSoftmaxGradSumsToZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		batch, classes := 1+rng.Intn(4), 2+rng.Intn(5)
		logits := tensor.FromSlice(rng.NormVec(batch*classes, 0, 3), batch, classes)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		_, grad := SoftmaxCrossEntropy(logits, labels)
		for n := 0; n < batch; n++ {
			var sum float64
			for j := 0; j < classes; j++ {
				sum += grad.At(n, j)
			}
			if math.Abs(sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 3, 2, 9, 0, -1}, 2, 3)
	got := Argmax(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v, want [1 0]", got)
	}
}

func TestAccuracyPerfectAndZero(t *testing.T) {
	rng := xrand.New(14)
	net := NewLogistic(2, 2, rng)
	// Force weights so that class = argmax picks feature sign.
	if err := net.SetParamVector([]float64{1, -1, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{5, 0, -5, 0}, 2, 2)
	if acc := Accuracy(net, x, []int{0, 1}); acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
	if acc := Accuracy(net, x, []int{1, 0}); acc != 0 {
		t.Fatalf("accuracy = %v, want 0", acc)
	}
}

func TestEmbeddingClampsOutOfRangeIDs(t *testing.T) {
	rng := xrand.New(15)
	e := NewEmbedding(4, 3, rng)
	x := tensor.FromSlice([]float64{-2, 9}, 1, 2)
	out := e.Forward(x)
	w := e.Params()[0]
	for j := 0; j < 3; j++ {
		if out.Data[j] != w.At(0, j) {
			t.Fatalf("negative id should clamp to row 0")
		}
		if out.Data[3+j] != w.At(3, j) {
			t.Fatalf("overflow id should clamp to last row")
		}
	}
}

func TestLSTMReturnSequencesShape(t *testing.T) {
	rng := xrand.New(16)
	l := NewLSTM(3, 5, true, rng)
	x := tensor.FromSlice(rng.NormVec(2*4*3, 0, 1), 2, 4, 3)
	out := l.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != 4 || out.Dim(2) != 5 {
		t.Fatalf("sequence output shape = %v, want [2 4 5]", out.Shape)
	}
	lastOnly := NewLSTM(3, 5, false, rng)
	out2 := lastOnly.Forward(x)
	if out2.Dim(0) != 2 || out2.Dim(1) != 5 {
		t.Fatalf("last-state output shape = %v, want [2 5]", out2.Shape)
	}
}

func TestLSTMSequenceLastStepMatchesLastOnly(t *testing.T) {
	rng := xrand.New(17)
	seq := NewLSTM(3, 4, true, rng)
	// Copy parameters into a last-only twin.
	last := NewLSTM(3, 4, false, xrand.New(99))
	for i, p := range seq.Params() {
		copy(last.Params()[i].Data, p.Data)
	}
	x := tensor.FromSlice(rng.NormVec(2*5*3, 0, 1), 2, 5, 3)
	so := seq.Forward(x)
	lo := last.Forward(x)
	T, h := 5, 4
	for n := 0; n < 2; n++ {
		for j := 0; j < h; j++ {
			a := so.Data[(n*T+T-1)*h+j]
			b := lo.Data[n*h+j]
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("sequence[T-1] != last-state at (%d,%d): %v vs %v", n, j, a, b)
			}
		}
	}
}

func TestCNNOutputShape(t *testing.T) {
	rng := xrand.New(18)
	cfg := DefaultCNNConfig()
	net := NewCNN(cfg, rng)
	x := tensor.New(3, 1, cfg.ImageSize, cfg.ImageSize)
	out := net.Forward(x)
	if out.Dim(0) != 3 || out.Dim(1) != cfg.Classes {
		t.Fatalf("CNN output shape = %v, want [3 %d]", out.Shape, cfg.Classes)
	}
}

func TestNextWordLSTMOutputShape(t *testing.T) {
	rng := xrand.New(19)
	cfg := DefaultLSTMConfig(50)
	net := NewNextWordLSTM(cfg, rng)
	x := tensor.New(2, 10)
	out := net.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != 50 {
		t.Fatalf("LSTM output shape = %v, want [2 50]", out.Shape)
	}
}

func TestMLPLearnsXORish(t *testing.T) {
	rng := xrand.New(20)
	net := NewMLP(rng, 2, 8, 2)
	xs := []float64{0, 0, 0, 1, 1, 0, 1, 1}
	labels := []int{0, 1, 1, 0}
	x := tensor.FromSlice(xs, 4, 2)
	for i := 0; i < 2000; i++ {
		TrainBatch(net, x.Clone(), labels, 0.3)
	}
	if acc := Accuracy(net, x, labels); acc < 1 {
		t.Fatalf("MLP failed to fit XOR: accuracy %v", acc)
	}
}

// inNetwork returns l after giving its gradients their storage in a network
// of it, for tests that drive one layer by hand.
func inNetwork[L Layer](l L) L {
	NewNetwork(l).ZeroGrads()
	return l
}

// vectorSHA is the SHA-256 of v's float64 bit patterns, little-endian.
func vectorSHA(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNetworkIsOneVector: every model keeps its parameters in one slice and
// its gradients in another. Each layer tensor is a view of its own segment
// with the capacity clipped to it, so the parameter methods are single sweeps
// over the two slices. The pinned hashes are the initial values the models
// were constructed with before the flat layout, so construction keeps them.
func TestNetworkIsOneVector(t *testing.T) {
	for _, m := range []struct {
		name string
		net  *Network
		sha  string
	}{
		{"cnn", NewCNN(DefaultCNNConfig(), xrand.New(1)),
			"c6050d68be3236b2227474dad9e06f5729432b6a2e46dd9e9ff6cb67fa2098d6"},
		{"mlp", NewMLP(xrand.New(2), 20, 16, 4),
			"d0f817ae03c03e7649b2a6fa826091247fc6581740b0a08360ba921d3be95747"},
		{"logistic", NewLogistic(12, 3, xrand.New(3)),
			"e07ba82d1a737f01d13a84ea99882266273580312b0522f8ea446c7e86203b8d"},
		{"lstm", NewNextWordLSTM(DefaultLSTMConfig(30), xrand.New(4)),
			"37ed9bfecf9d5c39747e8a9e8b85ecab5e0a67f78f62d327b3802f42f9c5925b"},
	} {
		t.Run(m.name, func(t *testing.T) {
			net := m.net
			if got := vectorSHA(net.ParamVector()); got != m.sha {
				t.Errorf("initial ParamVector SHA-256 %s, want %s", got, m.sha)
			}
			if net.grads != nil {
				t.Fatal("a network that has not trained holds a gradient vector")
			}
			net.ZeroGrads()
			dim := net.NumParams()
			want := make([]float64, dim)
			for i := range want {
				want[i] = float64(i) + 0.5
			}
			if err := net.SetParamVector(want); err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, l := range net.Layers() {
				ps, gs := l.Params(), l.Grads()
				if len(ps) != len(gs) {
					t.Fatalf("%T: %d params, %d grads", l, len(ps), len(gs))
				}
				for i, p := range ps {
					n := len(p.Data)
					if &p.Data[0] != &net.params[off] || &gs[i].Data[0] != &net.grads[off] {
						t.Fatalf("%T tensor %d does not alias segment [%d, %d)", l, i, off, off+n)
					}
					if cap(p.Data) != n || cap(gs[i].Data) != n {
						t.Fatalf("%T tensor %d: capacity %d/%d past its %d-long segment", l, i, cap(p.Data), cap(gs[i].Data), n)
					}
					for j, v := range p.Data {
						if v != want[off+j] {
							t.Fatalf("%T tensor %d[%d] = %v after SetParamVector, want %v", l, i, j, v, want[off+j])
						}
						gs[i].Data[j] = -want[off+j]
					}
					off += n
				}
			}
			if off != dim {
				t.Fatalf("segments cover %d of %d parameters", off, dim)
			}
			for i, g := range net.GradVector() {
				if g != -want[i] {
					t.Fatalf("GradVector[%d] = %v, want %v", i, g, -want[i])
				}
			}
		})
	}
}

func TestDeterministicInitialisation(t *testing.T) {
	a := NewCNN(DefaultCNNConfig(), xrand.Derive(7, "init", 0))
	b := NewCNN(DefaultCNNConfig(), xrand.Derive(7, "init", 0))
	av, bv := a.ParamVector(), b.ParamVector()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("same-seed networks differ at param %d", i)
		}
	}
}
