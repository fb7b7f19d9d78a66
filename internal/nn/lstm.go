package nn

import (
	"math"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// LSTM is a single-layer long short-term memory recurrence unrolled over a
// fixed-length sequence, trained with full backpropagation through time.
//
// Input shape [batch, time, in]. If ReturnSequences is true the output is
// [batch, time, hidden] (for stacking LSTM layers, as in the paper's 2-layer
// next-word model); otherwise it is the final hidden state [batch, hidden].
//
// Gate order inside the fused weight matrices is (input, forget, cell,
// output). The forget-gate bias is initialised to 1, the usual fix for
// early-training gradient flow.
//
// All per-timestep caches and BPTT scratch live in persistent per-layer
// buffers (see scratch.go), so steady-state training allocates nothing here.
type LSTM struct {
	In, Hidden      int
	ReturnSequences bool

	wx, wh, b    *tensor.Tensor // wx: [in, 4h], wh: [h, 4h], b: [4h]
	gwx, gwh, gb *tensor.Tensor

	// Forward caches, one entry per timestep.
	x          *tensor.Tensor
	hs, cs     []*tensor.Tensor // h_t, c_t for t = 0..T (index 0 is the initial zero state)
	gates      []*tensor.Tensor // post-nonlinearity gate activations [batch, 4h]
	tanhCCache []*tensor.Tensor

	// Workspace (see scratch.go for lifetime rules).
	seqOut, gin    *tensor.Tensor
	xt, dxt, dGate *tensor.Tensor
	dh, dhNext     *tensor.Tensor // ping-pong dL/dh_t buffers
	dc, dcPrev     *tensor.Tensor // ping-pong dL/dc_t buffers
}

// NewLSTM creates an LSTM layer with Glorot-uniform input weights and
// orthogonal-ish (normalised Gaussian) recurrent weights.
func NewLSTM(in, hidden int, returnSequences bool, rng *xrand.Stream) *LSTM {
	limit := math.Sqrt(6.0 / float64(in+4*hidden))
	wx := tensor.FromSlice(rng.UniformVec(in*4*hidden, -limit, limit), in, 4*hidden)
	wh := tensor.FromSlice(rng.NormVec(hidden*4*hidden, 0, 1/math.Sqrt(float64(hidden))), hidden, 4*hidden)
	b := tensor.New(4 * hidden)
	for j := hidden; j < 2*hidden; j++ { // forget-gate bias
		b.Data[j] = 1
	}
	return &LSTM{
		In: in, Hidden: hidden, ReturnSequences: returnSequences,
		wx: wx, wh: wh, b: b, gwx: gradOf(wx), gwh: gradOf(wh), gb: gradOf(b),
	}
}

// Forward implements Layer.
func (l *LSTM) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, T := x.Dim(0), x.Dim(1)
	h := l.Hidden
	l.x = x
	l.hs = ensureSeq(l.hs, T+1, batch, h)
	l.cs = ensureSeq(l.cs, T+1, batch, h)
	l.gates = ensureSeq(l.gates, T, batch, 4*h)
	l.tanhCCache = ensureSeq(l.tanhCCache, T, batch, h)
	l.hs[0].Zero()
	l.cs[0].Zero()

	var seqOut *tensor.Tensor
	if l.ReturnSequences {
		seqOut = ensure(&l.seqOut, batch, T, h)
	}
	for t := 0; t < T; t++ {
		xt := timeSliceInto(&l.xt, x, t)
		gate := l.gates[t]
		tensor.MatMulInto(gate, xt, l.wx)
		tensor.AddMatMul(gate, l.hs[t], l.wh)
		for n := 0; n < batch; n++ {
			row := gate.Data[n*4*h : (n+1)*4*h]
			for j, bv := range l.b.Data {
				row[j] += bv
			}
		}
		ct := l.cs[t+1]
		ht := l.hs[t+1]
		tc := l.tanhCCache[t]
		cPrev := l.cs[t]
		for n := 0; n < batch; n++ {
			row := gate.Data[n*4*h : (n+1)*4*h]
			for j := 0; j < h; j++ {
				i := sigmoid(row[j])
				f := sigmoid(row[h+j])
				g := math.Tanh(row[2*h+j])
				o := sigmoid(row[3*h+j])
				row[j], row[h+j], row[2*h+j], row[3*h+j] = i, f, g, o
				c := f*cPrev.Data[n*h+j] + i*g
				t2 := math.Tanh(c)
				ct.Data[n*h+j] = c
				tc.Data[n*h+j] = t2
				ht.Data[n*h+j] = o * t2
			}
		}
		if l.ReturnSequences {
			for n := 0; n < batch; n++ {
				copy(seqOut.Data[(n*T+t)*h:(n*T+t+1)*h], ht.Data[n*h:(n+1)*h])
			}
		}
	}
	if l.ReturnSequences {
		return seqOut
	}
	return l.hs[T]
}

// Backward implements Layer.
func (l *LSTM) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	batch, T := l.x.Dim(0), l.x.Dim(1)
	h := l.Hidden
	gradIn := ensure(&l.gin, batch, T, l.In)
	dh := ensure(&l.dh, batch, h) // running dL/dh_t
	dc := ensure(&l.dc, batch, h) // running dL/dc_t
	dhNext := ensure(&l.dhNext, batch, h)
	dcPrev := ensure(&l.dcPrev, batch, h)
	dGate := ensure(&l.dGate, batch, 4*h)
	dxt := ensure(&l.dxt, batch, l.In)
	dc.Zero()
	if l.ReturnSequences {
		dh.Zero()
	} else {
		copy(dh.Data, gradOut.Data)
	}

	for t := T - 1; t >= 0; t-- {
		if l.ReturnSequences {
			for n := 0; n < batch; n++ {
				src := gradOut.Data[(n*T+t)*h : (n*T+t+1)*h]
				dst := dh.Data[n*h : (n+1)*h]
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		gate := l.gates[t]
		cPrev := l.cs[t]
		tc := l.tanhCCache[t]
		for n := 0; n < batch; n++ {
			gRow := gate.Data[n*4*h : (n+1)*4*h]
			for j := 0; j < h; j++ {
				i, f, g, o := gRow[j], gRow[h+j], gRow[2*h+j], gRow[3*h+j]
				t2 := tc.Data[n*h+j]
				dhv := dh.Data[n*h+j]
				dcv := dc.Data[n*h+j] + dhv*o*(1-t2*t2)
				dGate.Data[n*4*h+j] = dcv * g * i * (1 - i)                   // input gate
				dGate.Data[n*4*h+h+j] = dcv * cPrev.Data[n*h+j] * f * (1 - f) // forget gate
				dGate.Data[n*4*h+2*h+j] = dcv * i * (1 - g*g)                 // candidate
				dGate.Data[n*4*h+3*h+j] = dhv * t2 * o * (1 - o)              // output gate
				dcPrev.Data[n*h+j] = dcv * f
			}
		}
		xt := timeSliceInto(&l.xt, l.x, t)
		tensor.AddMatMulTransA(l.gwx, xt, dGate)
		tensor.AddMatMulTransA(l.gwh, l.hs[t], dGate)
		for n := 0; n < batch; n++ {
			row := dGate.Data[n*4*h : (n+1)*4*h]
			for j, v := range row {
				l.gb.Data[j] += v
			}
		}
		tensor.MatMulTransBInto(dxt, dGate, l.wx)
		for n := 0; n < batch; n++ {
			copy(gradIn.Data[(n*T+t)*l.In:(n*T+t+1)*l.In], dxt.Data[n*l.In:(n+1)*l.In])
		}
		tensor.MatMulTransBInto(dhNext, dGate, l.wh) // dL/dh_{t-1}
		dh, dhNext = dhNext, dh
		dc, dcPrev = dcPrev, dc
	}
	l.dh, l.dhNext = dh, dhNext
	l.dc, l.dcPrev = dc, dcPrev
	return gradIn
}

// Params implements Layer.
func (l *LSTM) Params() []*tensor.Tensor { return []*tensor.Tensor{l.wx, l.wh, l.b} }

// Grads implements Layer.
func (l *LSTM) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.gwx, l.gwh, l.gb} }

// timeSliceInto copies x[:, t, :] into the reusable buffer *buf as a
// [batch, dim] tensor.
func timeSliceInto(buf **tensor.Tensor, x *tensor.Tensor, t int) *tensor.Tensor {
	batch, T, dim := x.Dim(0), x.Dim(1), x.Dim(2)
	out := ensure(buf, batch, dim)
	for n := 0; n < batch; n++ {
		copy(out.Data[n*dim:(n+1)*dim], x.Data[(n*T+t)*dim:(n*T+t+1)*dim])
	}
	return out
}
