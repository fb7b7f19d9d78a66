package nn

import (
	"math"
	"testing"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// Naive direct-convolution reference (the seed implementation's semantics,
// kept as ground truth for the im2col+GEMM rewrite).

func naiveConvForward(w, b, x *tensor.Tensor, inC, outC, k int) *tensor.Tensor {
	batch, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := h-k+1, wd-k+1
	out := tensor.New(batch, outC, oh, ow)
	for n := 0; n < batch; n++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := b.Data[oc]
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								wv := w.Data[((oc*inC+ic)*k+ky)*k+kx]
								xv := x.Data[((n*inC+ic)*h+oy+ky)*wd+ox+kx]
								s += wv * xv
							}
						}
					}
					out.Data[((n*outC+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

func naiveConvBackward(w, x, gradOut *tensor.Tensor, inC, outC, k int) (gw, gb, gin *tensor.Tensor) {
	batch, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := h-k+1, wd-k+1
	gw = tensor.New(outC, inC, k, k)
	gb = tensor.New(outC)
	gin = tensor.New(batch, inC, h, wd)
	for n := 0; n < batch; n++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gradOut.Data[((n*outC+oc)*oh+oy)*ow+ox]
					gb.Data[oc] += g
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								gw.Data[((oc*inC+ic)*k+ky)*k+kx] += g * x.Data[((n*inC+ic)*h+oy+ky)*wd+ox+kx]
								gin.Data[((n*inC+ic)*h+oy+ky)*wd+ox+kx] += g * w.Data[((oc*inC+ic)*k+ky)*k+kx]
							}
						}
					}
				}
			}
		}
	}
	return gw, gb, gin
}

func convMaxRelDiff(t *testing.T, got, want *tensor.Tensor) float64 {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("length mismatch: %d vs %d", len(got.Data), len(want.Data))
	}
	var worst float64
	for i := range got.Data {
		scale := math.Max(1, math.Max(math.Abs(got.Data[i]), math.Abs(want.Data[i])))
		if d := math.Abs(got.Data[i]-want.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestConvIm2colEquivalence pins the im2col+GEMM Conv2D against the naive
// direct convolution within 1e-12 relative error, on both passes, across
// edge shapes (batch=1, K=1, 1-channel and multi-channel, paper 5×5), and
// then the panel workspace: its two paths against each other bit for bit,
// which Forward a Backward belongs to, and its reuse across batch sizes.
func TestConvIm2colEquivalence(t *testing.T) {
	t.Run("panel-workspace", convPanelWorkspace)
	t.Run("backward-follows-last-forward", convBackwardFollowsLastForward)
	t.Run("workspace-reuse", convWorkspaceReuse)
	const tol = 1e-12
	cases := []struct {
		name                string
		batch, inC, outC, k int
		h, w                int
	}{
		{"batch1-single", 1, 1, 3, 3, 8, 8},
		{"k1-pointwise", 2, 2, 4, 1, 5, 7},
		{"multichannel", 3, 2, 3, 3, 9, 6},
		{"paper-conv1", 2, 1, 16, 5, 28, 28},
		{"paper-conv2", 2, 16, 8, 5, 12, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(77)
			layer := inNetwork(NewConv2D(tc.inC, tc.outC, tc.k, rng))
			w, b := layer.Params()[0], layer.Params()[1]
			for i := range b.Data { // nonzero biases to cover the bias path
				b.Data[i] = rng.Norm()
			}
			x := tensor.FromSlice(rng.NormVec(tc.batch*tc.inC*tc.h*tc.w, 0, 1), tc.batch, tc.inC, tc.h, tc.w)
			oh, ow := tc.h-tc.k+1, tc.w-tc.k+1
			gradOut := tensor.FromSlice(rng.NormVec(tc.batch*tc.outC*oh*ow, 0, 1), tc.batch, tc.outC, oh, ow)

			got := layer.Forward(x)
			want := naiveConvForward(w, b, x, tc.inC, tc.outC, tc.k)
			if d := convMaxRelDiff(t, got, want); d > tol {
				t.Errorf("forward: rel diff %g", d)
			}

			gotGin := layer.Backward(gradOut)
			wantGw, wantGb, wantGin := naiveConvBackward(w, x, gradOut, tc.inC, tc.outC, tc.k)
			if d := convMaxRelDiff(t, layer.Grads()[0], wantGw); d > tol {
				t.Errorf("weight grad: rel diff %g", d)
			}
			if d := convMaxRelDiff(t, layer.Grads()[1], wantGb); d > tol {
				t.Errorf("bias grad: rel diff %g", d)
			}
			if d := convMaxRelDiff(t, gotGin, wantGin); d > tol {
				t.Errorf("input grad: rel diff %g", d)
			}

			// A second Forward/Backward on the same layer must reuse the
			// workspace and still be exact (grads accumulate).
			layer.Forward(x)
			layer.Backward(gradOut)
			wantGw2 := wantGw.Clone()
			wantGw2.AddInPlace(wantGw)
			if d := convMaxRelDiff(t, layer.Grads()[0], wantGw2); d > tol {
				t.Errorf("accumulated weight grad: rel diff %g", d)
			}
		})
	}
}

// bitsEqual reports whether two tensors hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// convPanelWorkspace pins the im2col workspace rule: a batch whose panels
// fit convPanelBudget keeps one panel per sample from Forward to Backward, a
// batch one sample past it shares one panel and unrolls the input again, and
// the two paths agree bit for bit on the output, gw, gb and gin.
func convPanelWorkspace(t *testing.T) {
	// ckk·p = 16·256 = 4096, so exactly 32 samples fit the 1<<17 budget.
	const inC, outC, k, h, fits = 1, 3, 4, 19, 32
	const oh = h - k + 1
	if fits*inC*k*k*oh*oh != convPanelBudget {
		t.Fatalf("test shape no longer sits on the budget %d", convPanelBudget)
	}
	rng := xrand.New(5)
	over := inNetwork(NewConv2D(inC, outC, k, rng))
	kept := inNetwork(NewConv2D(inC, outC, k, xrand.New(6)))
	copy(kept.w.Data, over.w.Data)
	for i := range over.b.Data {
		over.b.Data[i] = rng.Norm()
		kept.b.Data[i] = over.b.Data[i]
	}
	const batch = fits + 1
	sample, outSample := inC*h*h, outC*oh*oh
	x := tensor.FromSlice(rng.NormVec(batch*sample, 0, 1), batch, inC, h, h)
	gradOut := tensor.FromSlice(rng.NormVec(batch*outSample, 0, 1), batch, outC, oh, oh)

	out := over.Forward(x).Clone()
	if over.cols.Dim(0) != 1 {
		t.Fatalf("a batch of %d kept %d panels, want the one-panel recompute path", batch, over.cols.Dim(0))
	}
	gin := over.Backward(gradOut).Clone()

	// The same samples as a batch that fits and a batch of one, gradients
	// accumulating across the two calls in the same sample order.
	for _, part := range [][2]int{{0, fits}, {fits, batch}} {
		lo, hi := part[0], part[1]
		xp := tensor.FromSlice(x.Data[lo*sample:hi*sample], hi-lo, inC, h, h)
		gp := tensor.FromSlice(gradOut.Data[lo*outSample:hi*outSample], hi-lo, outC, oh, oh)
		outP := kept.Forward(xp)
		if kept.cols.Dim(0) != hi-lo {
			t.Fatalf("a batch of %d kept %d panels, want one per sample", hi-lo, kept.cols.Dim(0))
		}
		if !bitsEqual(outP.Data, out.Data[lo*outSample:hi*outSample]) {
			t.Errorf("samples [%d,%d): outputs differ between the kept and the recompute path", lo, hi)
		}
		if ginP := kept.Backward(gp); !bitsEqual(ginP.Data, gin.Data[lo*sample:hi*sample]) {
			t.Errorf("samples [%d,%d): input gradients differ between the kept and the recompute path", lo, hi)
		}
	}
	if !bitsEqual(kept.gw.Data, over.gw.Data) || !bitsEqual(kept.gb.Data, over.gb.Data) {
		t.Error("weight or bias gradients differ between the kept and the recompute path")
	}
}

// convBackwardFollowsLastForward: the kept panels belong to the latest
// Forward, so Forward(a), Forward(b), Backward yields b's gradients.
func convBackwardFollowsLastForward(t *testing.T) {
	rng := xrand.New(9)
	layer := inNetwork(NewConv2D(2, 3, 3, rng))
	ref := inNetwork(NewConv2D(2, 3, 3, xrand.New(10)))
	copy(ref.w.Data, layer.w.Data)
	a := tensor.FromSlice(rng.NormVec(2*2*7*7, 0, 1), 2, 2, 7, 7)
	b := tensor.FromSlice(rng.NormVec(2*2*7*7, 0, 1), 2, 2, 7, 7)
	gradOut := tensor.FromSlice(rng.NormVec(2*3*5*5, 0, 1), 2, 3, 5, 5)

	layer.Forward(a)
	layer.Forward(b)
	gin := layer.Backward(gradOut)
	ref.Forward(b)
	wantGin := ref.Backward(gradOut)
	if !bitsEqual(gin.Data, wantGin.Data) || !bitsEqual(layer.gw.Data, ref.gw.Data) || !bitsEqual(layer.gb.Data, ref.gb.Data) {
		t.Error("Backward after Forward(a), Forward(b) did not produce b's gradients")
	}
}

// convWorkspaceReuse: alternating an over-budget batch with a small one
// (evaluation between training steps) shrinks and regrows the panel
// workspace without allocating once both sizes have been seen.
func convWorkspaceReuse(t *testing.T) {
	defer tensor.SetMatMulParallelism(tensor.MatMulParallelism())
	tensor.SetMatMulParallelism(1) // a split product allocates its closure
	rng := xrand.New(11)
	layer := inNetwork(NewConv2D(1, 8, 5, rng))
	big := tensor.FromSlice(rng.NormVec(64*28*28, 0, 1), 64, 1, 28, 28)
	small := tensor.FromSlice(rng.NormVec(2*28*28, 0, 1), 2, 1, 28, 28)
	bigGrad := tensor.FromSlice(rng.NormVec(64*8*24*24, 0, 1), 64, 8, 24, 24)
	smallGrad := tensor.FromSlice(rng.NormVec(2*8*24*24, 0, 1), 2, 8, 24, 24)
	step := func() {
		layer.Forward(big)
		layer.Backward(bigGrad)
		layer.Forward(small)
		layer.Backward(smallGrad)
	}
	step()
	if layer.cols.Dim(0) != 2 || cap(layer.cols.Data) < 2*25*576 {
		t.Fatalf("after a batch of 2 the workspace holds %d panels in %d floats", layer.cols.Dim(0), cap(layer.cols.Data))
	}
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Errorf("steady-state shrink/grow of the batch allocates %v times per step, want 0", allocs)
	}
}

// TestMaxPoolDeadWindowGradientStaysLocal: a window with nothing above −Inf
// (all NaN here) used to route its gradient to element 0 of the whole batch
// tensor, another sample's plane.
func TestMaxPoolDeadWindowGradientStaysLocal(t *testing.T) {
	pool := NewMaxPool2()
	x := tensor.New(2, 1, 2, 2)
	copy(x.Data, []float64{1, 2, 3, 4, math.NaN(), math.NaN(), math.NaN(), math.NaN()})
	pool.Forward(x)
	grad := tensor.FromSlice([]float64{10, 20}, 2, 1, 1, 1)
	gin := pool.Backward(grad)
	want := []float64{0, 0, 0, 10, 20, 0, 0, 0}
	if !bitsEqual(gin.Data, want) {
		t.Errorf("input gradient %v, want %v: the dead window's gradient left its sample", gin.Data, want)
	}
}
