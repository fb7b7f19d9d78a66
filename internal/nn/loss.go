package nn

import "cmfl/internal/tensor"

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits [batch, classes] against integer labels, and the gradient of the
// loss with respect to the logits.
//
// The softmax is computed with the max-subtraction trick for numerical
// stability. The returned gradient is already divided by the batch size, so
// it can be fed directly into Network.Backward.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	grad = tensor.New(logits.Dim(0), logits.Dim(1))
	return SoftmaxCrossEntropyInto(grad, logits, labels), grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the logit gradient
// into a caller-owned tensor (shape [batch, classes]) instead of allocating.
//
// Per row it computes what one scalar loop would, bit for bit: the row max,
// math.Exp of each shifted logit, their sum left to right, math.Log of the
// label's probability (+1e-300), and each gradient as e / sum · (1/batch).
// The work is batched for the tensor kernels: the whole batch's shifted
// logits go through one SoftmaxExpInto, and the logs of eight rows at a
// time through one LogInto, with the loss still summed in row order.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (loss float64) {
	batch, classes := logits.Dim(0), logits.Dim(1)
	inv := 1.0 / float64(batch)
	g := grad.Data[:batch*classes]
	tensor.SoftmaxExpInto(g, logits.Data[:batch*classes], classes)
	var sums, p [8]float64
	for n0 := 0; n0 < batch; n0 += len(p) {
		rows := min(len(p), batch-n0)
		for r := range rows {
			gRow := g[(n0+r)*classes : (n0+r+1)*classes]
			var sum float64
			for _, e := range gRow {
				sum += e
			}
			sums[r] = sum
			p[r] = gRow[labels[n0+r]]/sum + 1e-300
		}
		tensor.LogInto(p[:rows], p[:rows])
		for r := range rows {
			loss += -p[r]
			gRow := g[(n0+r)*classes : (n0+r+1)*classes]
			sum := sums[r]
			for j := range gRow {
				gRow[j] = gRow[j] / sum * inv
			}
			gRow[labels[n0+r]] -= inv
		}
	}
	return loss * inv
}

// Argmax returns the index of the maximum value in each row of a
// [batch, classes] tensor.
func Argmax(logits *tensor.Tensor) []int {
	batch, classes := logits.Dim(0), logits.Dim(1)
	out := make([]int, batch)
	for n := 0; n < batch; n++ {
		row := logits.Data[n*classes : (n+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[n] = best
	}
	return out
}
