package nn

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"

	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// softmaxCrossEntropyReference is the loss as one scalar loop per row, in
// the order SoftmaxCrossEntropyInto keeps: the row max, math.Exp of each
// shifted logit summed left to right, math.Log of the label's probability,
// then each gradient as e / sum · (1/batch).
func softmaxCrossEntropyReference(grad, logits *tensor.Tensor, labels []int) (loss float64) {
	batch, classes := logits.Dim(0), logits.Dim(1)
	inv := 1.0 / float64(batch)
	for n := 0; n < batch; n++ {
		row := logits.Data[n*classes : (n+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		gRow := grad.Data[n*classes : (n+1)*classes]
		for j, v := range row {
			e := math.Exp(v - maxv)
			gRow[j] = e
			sum += e
		}
		y := labels[n]
		loss += -math.Log(gRow[y]/sum + 1e-300)
		for j := range gRow {
			gRow[j] = gRow[j] / sum * inv
		}
		gRow[y] -= inv
	}
	return loss * inv
}

// TestSoftmaxCrossEntropyMatchesReference: the batched loss returns the
// reference loop's loss and stores its every gradient bit, NaN payloads
// included, at the shapes the models train at and at ragged ones (a batch
// that is not a multiple of eight rows, one class). Each shape also runs
// with a row whose logit gap passes 708, so that exp's block goes to the
// scalar fallback, and with a row holding a NaN logit, first in its row or
// not. The test runs on the AVX-512 kernels where the CPU has them, then
// reruns itself with CMFL_NOSIMD=1.
func TestSoftmaxCrossEntropyMatchesReference(t *testing.T) {
	rng := xrand.New(23)
	for _, shape := range [][2]int{{8, 4}, {8, 10}, {2, 10}, {8, 100}, {9, 4}, {17, 10}, {3, 1}} {
		batch, classes := shape[0], shape[1]
		for _, variant := range []string{"plain", "gap", "nan-first", "nan-inside"} {
			t.Run(fmt.Sprintf("%dx%d-%s", batch, classes, variant), func(t *testing.T) {
				logits := tensor.FromSlice(rng.NormVec(batch*classes, 0, 4), batch, classes)
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = rng.Intn(classes)
				}
				row := logits.Data[(batch-1)*classes : batch*classes]
				switch variant {
				case "gap":
					row[0] = 800
					labels[batch-1] = classes - 1
				case "nan-first":
					row[0] = math.NaN()
				case "nan-inside":
					row[classes-1] = math.Float64frombits(0xfff8dead00000001)
				}
				want := tensor.New(batch, classes)
				wantLoss := softmaxCrossEntropyReference(want, logits, labels)
				got := tensor.New(batch, classes)
				for i := range got.Data {
					got.Data[i] = math.NaN() // nothing of a stale gradient may survive
				}
				gotLoss := SoftmaxCrossEntropyInto(got, logits, labels)
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("loss %v [%#x], want %v [%#x]", gotLoss, math.Float64bits(gotLoss), wantLoss, math.Float64bits(wantLoss))
				}
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("grad[%d] = %v [%#x], want %v [%#x]", i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
					}
				}
			})
		}
	}
	if os.Getenv("CMFL_NOSIMD") != "1" && !t.Failed() {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSoftmaxCrossEntropyMatchesReference$", "-test.count=1")
		cmd.Env = append(os.Environ(), "CMFL_NOSIMD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("with CMFL_NOSIMD=1: %v\n%s", err, out)
		}
	}
}

// TestTrainBatchAllocFree: a training step of the population-scale
// workload's 16→4 logistic model allocates nothing once its buffers exist.
func TestTrainBatchAllocFree(t *testing.T) {
	rng := xrand.New(29)
	net := NewLogistic(16, 4, rng)
	x := tensor.FromSlice(rng.NormVec(8*16, 0, 1), 8, 16)
	labels := []int{0, 1, 2, 3, 3, 2, 1, 0}
	TrainBatch(net, x, labels, 0.1)
	if allocs := testing.AllocsPerRun(20, func() { TrainBatch(net, x, labels, 0.1) }); allocs != 0 {
		t.Fatalf("TrainBatch allocates %v times per step, want 0", allocs)
	}
}

// BenchmarkSoftmaxCrossEntropy prices the loss and its gradient at the
// batch×classes shapes the workloads train at: the population-scale
// logistic model (8×4), the CNN and MNIST-style heads (8×10, and 2×10 at
// the paper's local batch) and the wide logistic model (8×100).
func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	for _, shape := range [][2]int{{8, 4}, {8, 10}, {2, 10}, {8, 100}} {
		batch, classes := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", batch, classes), func(b *testing.B) {
			rng := xrand.New(31)
			logits := tensor.FromSlice(rng.NormVec(batch*classes, 0, 2), batch, classes)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = rng.Intn(classes)
			}
			grad := tensor.New(batch, classes)
			b.ReportAllocs()
			for range b.N {
				SoftmaxCrossEntropyInto(grad, logits, labels)
			}
		})
	}
}
