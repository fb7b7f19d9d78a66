package nn

import (
	"math"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// Embedding maps integer token ids to dense vectors.
//
// Input shape [batch, time] holding token ids stored as float64 (they are
// rounded to the nearest integer and clamped to the vocabulary range).
// Output shape [batch, time, dim]. Ids are not differentiable, so Backward
// returns a zero tensor of the input shape.
type Embedding struct {
	Vocab, Dim int

	w  *tensor.Tensor // [vocab, dim]
	gw *tensor.Tensor

	ids []int
	bt  []int // cached batch, time

	out, gin *tensor.Tensor // workspace
}

// NewEmbedding creates an embedding table initialised from N(0, 1/sqrt(dim)).
func NewEmbedding(vocab, dim int, rng *xrand.Stream) *Embedding {
	w := tensor.FromSlice(rng.NormVec(vocab*dim, 0, 1/math.Sqrt(float64(dim))), vocab, dim)
	return &Embedding{Vocab: vocab, Dim: dim, w: w, gw: gradOf(w)}
}

// Forward implements Layer.
func (e *Embedding) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, time := x.Dim(0), x.Dim(1)
	e.bt = append(e.bt[:0], batch, time)
	if cap(e.ids) < batch*time {
		e.ids = make([]int, batch*time)
	}
	e.ids = e.ids[:batch*time]
	out := ensure(&e.out, batch, time, e.Dim)
	for i, raw := range x.Data {
		id := int(math.Round(raw))
		if id < 0 {
			id = 0
		}
		if id >= e.Vocab {
			id = e.Vocab - 1
		}
		e.ids[i] = id
		copy(out.Data[i*e.Dim:(i+1)*e.Dim], e.w.Data[id*e.Dim:(id+1)*e.Dim])
	}
	return out
}

// Backward implements Layer.
func (e *Embedding) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i, id := range e.ids {
		row := e.gw.Data[id*e.Dim : (id+1)*e.Dim]
		g := gradOut.Data[i*e.Dim : (i+1)*e.Dim]
		for j, v := range g {
			row[j] += v
		}
	}
	gin := ensure(&e.gin, e.bt[0], e.bt[1])
	gin.Zero()
	return gin
}

// Params implements Layer.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.w} }

// Grads implements Layer.
func (e *Embedding) Grads() []*tensor.Tensor { return []*tensor.Tensor{e.gw} }
