package fl

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cmfl/internal/compress"
	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// randomSet builds a dataset with normally distributed features — benchmark
// fodder matching a workload's tensor shapes without generator cost.
func randomSet(n int, sampleShape []int, classes int, rng *xrand.Stream) *dataset.Set {
	total := n
	for _, d := range sampleShape {
		total *= d
	}
	x := tensor.FromSlice(rng.NormVec(total, 0, 1), append([]int{n}, sampleShape...)...)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return &dataset.Set{X: x, Y: y}
}

// BenchmarkLocalTrainRound measures one client's full local round (E epochs
// of minibatch SGD) on the two reproduction workloads at paper-like shapes:
// the 28×28/5×5 MNIST CNN and the 2-layer next-word LSTM. This is the
// quantity that bounds every experiment's wall-clock.
func BenchmarkLocalTrainRound(b *testing.B) {
	b.Run("mnist-cnn", func(b *testing.B) {
		cfg := nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 16, Conv2: 32, Hidden: 128, Classes: 10}
		net := nn.NewCNN(cfg, xrand.New(1))
		shard := randomSet(20, []int{1, 28, 28}, 10, xrand.New(2))
		params := net.ParamVector()
		rng := xrand.New(3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := LocalTrain(net, shard, params, 0.05, 1, 2, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nextword-lstm", func(b *testing.B) {
		cfg := nn.LSTMConfig{Vocab: 500, Embed: 32, Hidden: 64, Layers: 2}
		net := nn.NewNextWordLSTM(cfg, xrand.New(4))
		rng := xrand.New(5)
		n, window := 20, 10
		ids := make([]float64, n*window)
		for i := range ids {
			ids[i] = float64(rng.Intn(cfg.Vocab))
		}
		shard := &dataset.Set{X: tensor.FromSlice(ids, n, window), Y: make([]int, n)}
		for i := range shard.Y {
			shard.Y[i] = rng.Intn(cfg.Vocab)
		}
		params := net.ParamVector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := LocalTrain(net, shard, params, 0.05, 1, 5, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentLocalRounds is BenchmarkLocalTrainRound/mnist-cnn with
// GOMAXPROCS trainers at once, each through ClientStep.Train: the state every
// engine is in for most of a round. One op is one client's local round; its
// allocs/op stay those of the lone serial round, because no product is split
// onto a core another round holds. Every trainer keeps a local-round mark of
// its own until all have finished, so the run's tail (one trainer left,
// splitting as a lone caller should) does not leak into the count.
func BenchmarkConcurrentLocalRounds(b *testing.B) {
	b.Run("mnist-cnn", func(b *testing.B) {
		cfg := nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 16, Conv2: 32, Hidden: 128, Classes: 10}
		step := &ClientStep{Epochs: 1, Batch: 2, Filter: Vanilla{}}
		params := nn.NewCNN(cfg, xrand.New(1)).ParamVector()
		bc := &Broadcast{Round: 1, LR: 0.05, Params: params, Feedback: make([]float64, len(params))}
		var trainers atomic.Int64
		var running sync.WaitGroup
		running.Add(runtime.GOMAXPROCS(0))
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			id := trainers.Add(1)
			net := nn.NewCNN(cfg, xrand.New(1))
			shard := randomSet(20, []int{1, 28, 28}, 10, xrand.New(1+id))
			rng := xrand.New(100 + id)
			tensor.EnterLocalRound()
			defer func() {
				running.Done()
				running.Wait()
				tensor.LeaveLocalRound()
			}()
			for pb.Next() {
				if _, err := step.Train(net, shard, rng, bc); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkInstrumentedLocalRound is BenchmarkLocalTrainRound/mnist-cnn plus
// the full telemetry path: one ClientEvent and one RoundEvent per round
// through a registry-backed Collector. Guards the observability layer's
// zero-allocation budget — the gate is identical ns/op and allocs/op to the
// uninstrumented round.
func BenchmarkInstrumentedLocalRound(b *testing.B) {
	b.Run("mnist-cnn", func(b *testing.B) {
		cfg := nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 16, Conv2: 32, Hidden: 128, Classes: 10}
		net := nn.NewCNN(cfg, xrand.New(1))
		shard := randomSet(20, []int{1, 28, 28}, 10, xrand.New(2))
		params := net.ParamVector()
		rng := xrand.New(3)
		col := telemetry.NewCollector(telemetry.NewRegistry())
		obs := []telemetry.Observer{col}
		dim := int64(len(params))
		// Warm the per-engine handle cache so the loop is steady state.
		col.OnRound(telemetry.RoundEvent{Engine: telemetry.EngineSync, Accuracy: math.NaN()})
		var cumBytes int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := LocalTrain(net, shard, params, 0.05, 1, 2, rng); err != nil {
				b.Fatal(err)
			}
			cumBytes += dim * 8
			telemetry.EmitClient(obs, telemetry.ClientEvent{
				Engine: telemetry.EngineSync, Round: i + 1, Client: 0,
				Uploaded: true, Relevance: 0.5, UplinkBytes: dim * 8,
			})
			telemetry.EmitRound(obs, telemetry.RoundEvent{
				Engine: telemetry.EngineSync, Round: i + 1, Participants: 1,
				Uploaded: 1, CumUploads: i + 1, CumUplinkBytes: cumBytes,
				Accuracy: math.NaN(),
			})
		}
	})
}

// BenchmarkPackTopKEF is the codec half of an emu_wide_topk client round:
// Pack over a 102,538-dim delta with top1000+quantize8 and error feedback.
// Steady state allocates nothing.
func BenchmarkPackTopKEF(b *testing.B) {
	const dim = 102_538
	step := &ClientStep{Compressor: compress.NewChain(compress.TopK{K: 1000}, compress.Uniform8{})}
	sc := Scratch{Residual: make([]float64, dim)}
	fresh := xrand.New(3).NormVec(dim, 0, 0.01)
	delta := make([]float64, dim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(delta, fresh) // Pack leaves the decoded update in r.Delta
		r := Reply{Delta: delta, Upload: true}
		if _, err := step.Pack(&sc, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregatorFold is sim_wide_q8's server fold: 192 uploads of 100,100
// coordinates (eight distinct deltas in turn, 6.4 MB) summed exactly, rounded
// and applied over GOMAXPROCS ranges, so `-cpu 1` measures the serial fold and
// `-cpu 2` the two-range split. An op allocates the sum Close takes ownership
// of, and a split one the task that hands its second range to a worker.
func BenchmarkAggregatorFold(b *testing.B) {
	const dim, uploads = 100_100, 192
	deltas := make([][]float64, 8)
	for i := range deltas {
		deltas[i] = xrand.New(int64(i)).NormVec(dim, 0, 0.01)
	}
	replies := make([]Reply, uploads)
	accepted := make([]int, uploads)
	for i := range replies {
		replies[i], accepted[i] = Reply{Delta: deltas[i%len(deltas)], Upload: true}, i
	}
	agg := NewAggregator(telemetry.EngineSim, make([]float64, dim), uploads, Vanilla{}, nil)
	agg.Fold(1, uploads, accepted, replies, nil) // builds the split and its accumulators
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Fold(i+2, uploads, accepted, replies, nil)
	}
}
