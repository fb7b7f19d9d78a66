package nn

import (
	"math"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// Conv2D is a 2-D convolution with stride 1 and no padding ("valid").
//
// Input shape [batch, inC, H, W]; output shape [batch, outC, H-K+1, W-K+1].
// The paper's MNIST model uses two 5×5 convolutions; the kernel size is a
// parameter so scaled-down experiments can use 3×3.
//
// Both passes lower the convolution to GEMM via im2col: for each sample the
// K×K input windows are unrolled into a [inC·K·K, oh·ow] column matrix, so
// the forward pass is w·cols, the weight gradient is dY·colsᵀ and the input
// gradient is wᵀ·dY scattered back (col2im). The column matrices and all
// output/gradient tensors live in a persistent per-layer workspace, so
// steady-state training allocates nothing here.
//
// Forward keeps every sample's column matrix for Backward when the whole
// batch's fit convPanelBudget (a training minibatch); a larger batch (an
// evaluation sweep) shares one matrix and Backward unrolls the input again.
// Either way Backward reads what Forward saw, which is the contract every
// layer relies on: the input is not mutated between Forward and Backward.
type Conv2D struct {
	// skipInputGrad is set by Network.Backward when this layer is first in
	// the stack and its input gradient would be discarded.
	skipInputGrad bool

	InC, OutC, K int

	w, b   *tensor.Tensor // w: [outC, inC, K, K], b: [outC]
	gw, gb *tensor.Tensor

	x *tensor.Tensor

	// Workspace (see scratch.go for lifetime rules).
	cols              *tensor.Tensor // [batch or 1, inC·K·K, oh·ow] im2col panels
	dcols             *tensor.Tensor // [inC·K·K, oh·ow]
	out, gin          *tensor.Tensor
	w2d, gw2d         *tensor.Tensor // cached 2-D views of w and gw
	outView, gradView *tensor.Tensor
	colsView          *tensor.Tensor // one sample's panel of cols
}

// convPanelBudget is the most float64s (1 MiB) of im2col panels a layer keeps
// from Forward to Backward. It bounds the workspace by the batch the layer
// trains on instead of the largest batch it ever evaluates.
const convPanelBudget = 1 << 17

// panels sizes the im2col workspace for a batch and reports whether every
// sample has a panel of its own.
func (c *Conv2D) panels(batch, ckk, p int) (cols *tensor.Tensor, kept bool) {
	kept = batch*ckk*p <= convPanelBudget
	if !kept {
		batch = 1
	}
	return ensure(&c.cols, batch, ckk, p), kept
}

// panel returns sample n's im2col matrix within cols as a 2-D view: its own
// when every sample has one, the shared one otherwise.
func (c *Conv2D) panel(cols *tensor.Tensor, n int) *tensor.Tensor {
	n = min(n, cols.Dim(0)-1)
	ckk, p := cols.Dim(1), cols.Dim(2)
	return viewAs(&c.colsView, cols.Data[n*ckk*p:(n+1)*ckk*p], ckk, p)
}

// NewConv2D creates a convolution layer with Glorot-uniform initialisation.
func NewConv2D(inC, outC, k int, rng *xrand.Stream) *Conv2D {
	fanIn := inC * k * k
	fanOut := outC * k * k
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	w, b := tensor.FromSlice(rng.UniformVec(outC*inC*k*k, -limit, limit), outC, inC, k, k), tensor.New(outC)
	return &Conv2D{InC: inC, OutC: outC, K: k, w: w, b: b, gw: gradOf(w), gb: gradOf(b)}
}

// im2col unrolls sample n of x into cols: row (ic·K+ky)·K+kx holds the
// window element (ky, kx) of channel ic for every output position, laid out
// so each output row is a contiguous copy of an input-row segment. Only the
// ky = 0 rows are gathered that way: window row ky of output row oy is window
// row ky−1 of output row oy+1, so every later row is the row K above it
// shifted up by one output row — one long copy within cols — plus its last
// output row from x.
func (c *Conv2D) im2col(x *tensor.Tensor, n, h, w, oh, ow int, cols *tensor.Tensor) {
	p := oh * ow
	for ic := 0; ic < c.InC; ic++ {
		chanBase := (n*c.InC + ic) * h * w
		for kx := 0; kx < c.K; kx++ {
			row := ic*c.K*c.K + kx
			dst := cols.Data[row*p : (row+1)*p]
			for oy := 0; oy < oh; oy++ {
				src := x.Data[chanBase+oy*w+kx:]
				copy(dst[oy*ow:(oy+1)*ow], src[:ow])
			}
			for ky := 1; ky < c.K; ky++ {
				prev := dst
				row += c.K
				dst = cols.Data[row*p : (row+1)*p]
				copy(dst, prev[ow:])
				src := x.Data[chanBase+(oh-1+ky)*w+kx:]
				copy(dst[p-ow:], src[:ow])
			}
		}
	}
}

// col2im scatters dcols back into sample n of gin, accumulating where
// windows overlap — the adjoint of im2col. Column row (ic·K+ky)·K+kx holds
// oh rows of ow, which land on input rows ky.. of channel ic from column
// kx: one strided row add each.
func (c *Conv2D) col2im(dcols *tensor.Tensor, n, h, w, oh, ow int, gin *tensor.Tensor) {
	p := oh * ow
	row := 0
	for ic := 0; ic < c.InC; ic++ {
		chanBase := (n*c.InC + ic) * h * w
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				tensor.AddRows(gin.Data[chanBase+ky*w+kx:], w, dcols.Data[row*p:(row+1)*p], oh, ow)
				row++
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := h-c.K+1, w-c.K+1
	ckk := c.InC * c.K * c.K
	p := oh * ow

	out := ensure(&c.out, batch, c.OutC, oh, ow)
	panels, _ := c.panels(batch, ckk, p)
	w2d := viewAs(&c.w2d, c.w.Data, c.OutC, ckk)
	for n := 0; n < batch; n++ {
		cols := c.panel(panels, n)
		c.im2col(x, n, h, w, oh, ow, cols)
		outN := viewAs(&c.outView, out.Data[n*c.OutC*p:(n+1)*c.OutC*p], c.OutC, p)
		tensor.MatMulInto(outN, w2d, cols)
		tensor.AddBias(outN.Data, c.b.Data, p)
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.x
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := h-c.K+1, w-c.K+1
	ckk := c.InC * c.K * c.K
	p := oh * ow

	var gin, dcols *tensor.Tensor
	if !c.skipInputGrad {
		gin = ensure(&c.gin, batch, c.InC, h, w)
		gin.Zero()
		dcols = ensure(&c.dcols, ckk, p)
	}
	panels, kept := c.panels(batch, ckk, p) // Forward's shape: ensure leaves the contents alone
	w2d := viewAs(&c.w2d, c.w.Data, c.OutC, ckk)
	gw2d := viewAs(&c.gw2d, c.gw.Data, c.OutC, ckk)
	for n := 0; n < batch; n++ {
		gN := viewAs(&c.gradView, gradOut.Data[n*c.OutC*p:(n+1)*c.OutC*p], c.OutC, p)
		cols := c.panel(panels, n)
		if !kept {
			c.im2col(x, n, h, w, oh, ow, cols)
		}
		// dW += dY·colsᵀ ; db += row sums of dY ; dcols = wᵀ·dY.
		tensor.AddMatMulTransB(gw2d, gN, cols)
		for oc := 0; oc < c.OutC; oc++ {
			row := gN.Data[oc*p : (oc+1)*p]
			var s float64
			for _, v := range row {
				s += v
			}
			c.gb.Data[oc] += s
		}
		if gin != nil {
			tensor.MatMulTransAInto(dcols, w2d, gN)
			c.col2im(dcols, n, h, w, oh, ow, gin)
		}
	}
	return gin
}

// setSkipInputGrad implements the nn-internal inputGradSkipper contract: a
// Conv2D used as the network's first layer omits dcols/col2im and returns a
// nil input gradient.
func (c *Conv2D) setSkipInputGrad(skip bool) { c.skipInputGrad = skip }

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gw, c.gb} }

// MaxPool2 is a 2×2 max pooling layer with stride 2.
//
// Input shape [batch, C, H, W] with even H and W; output [batch, C, H/2, W/2].
type MaxPool2 struct {
	argmax  []int
	inShape []int

	out, gin *tensor.Tensor
}

// NewMaxPool2 returns a 2×2 max-pooling layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := ensure(&p.out, batch, ch, h/2, w/2)
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]
	tensor.MaxPool2x2(out.Data, p.argmax, x.Data, batch*ch, h, w)
	return out
}

// Backward implements Layer.
func (p *MaxPool2) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gin := ensure(&p.gin, p.inShape...)
	gin.Zero()
	for oIdx, iIdx := range p.argmax {
		gin.Data[iIdx] += gradOut.Data[oIdx]
	}
	return gin
}

// Params implements Layer.
func (p *MaxPool2) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2) Grads() []*tensor.Tensor { return nil }
