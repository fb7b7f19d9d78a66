package fl

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cmfl/internal/compress"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
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

// tokenSet builds n next-word samples: windows of token ids and a target id.
func tokenSet(n, window, vocab int, rng *xrand.Stream) *dataset.Set {
	ids := make([]float64, n*window)
	for i := range ids {
		ids[i] = float64(rng.Intn(vocab))
	}
	set := &dataset.Set{X: tensor.FromSlice(ids, n, window), Y: make([]int, n)}
	for i := range set.Y {
		set.Y[i] = rng.Intn(vocab)
	}
	return set
}

// paperCNN is BenchmarkLocalTrainRound's 28×28/5×5 MNIST CNN.
var paperCNN = nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 16, Conv2: 32, Hidden: 128, Classes: 10}

// localRound returns one client's local round through ClientStep.Train, the
// path every engine runs: the solver on a reused workspace, the update
// written into a reused reply.
func localRound(net *nn.Network, shard *dataset.Set, batch int, rng *xrand.Stream) func() error {
	step := &ClientStep{Epochs: 1, Batch: batch, Filter: Vanilla{}}
	params := net.ParamVector()
	bc := &Broadcast{Round: 1, LR: 0.05, Params: params, Feedback: make([]float64, len(params))}
	var sc Scratch
	var r Reply
	return func() error { return step.Train(&sc, net, shard, rng, bc, &r) }
}

// warm runs round once, so the buffers it reuses exist before the timer starts.
func warm(b *testing.B, round func() error) {
	if err := round(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

// BenchmarkLocalTrainRound measures one client's full local round (E epochs
// of minibatch SGD) on the two reproduction workloads at paper-like shapes:
// the 28×28/5×5 MNIST CNN and the 2-layer next-word LSTM. This is the
// quantity that bounds every experiment's wall-clock. The wide rows are the
// models of the wide benchmark workloads, 32 samples in batches of 8: the
// 1000 → 100 logistic model of sim_wide_q8 and the 256-384-10 MLP of the
// emu workloads, where the Dense step and the delta pass are all the work.
func BenchmarkLocalTrainRound(b *testing.B) {
	for _, c := range []struct {
		name   string
		widths []int
	}{{"wide-logistic", []int{1000, 100}}, {"wide-mlp", []int{256, 384, 10}}} {
		b.Run(c.name, func(b *testing.B) {
			in, classes := c.widths[0], c.widths[len(c.widths)-1]
			round := localRound(nn.NewMLP(xrand.New(6), c.widths...), randomSet(32, []int{in}, classes, xrand.New(7)), 8, xrand.New(8))
			b.ReportAllocs()
			warm(b, round)
			for i := 0; i < b.N; i++ {
				if err := round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("mnist-cnn", func(b *testing.B) {
		round := localRound(nn.NewCNN(paperCNN, xrand.New(1)), randomSet(20, []int{1, 28, 28}, 10, xrand.New(2)), 2, xrand.New(3))
		b.ReportAllocs()
		warm(b, round)
		for i := 0; i < b.N; i++ {
			if err := round(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nextword-lstm", func(b *testing.B) {
		cfg := nn.LSTMConfig{Vocab: 500, Embed: 32, Hidden: 64, Layers: 2}
		rng := xrand.New(5)
		round := localRound(nn.NewNextWordLSTM(cfg, xrand.New(4)), tokenSet(20, 10, cfg.Vocab, rng), 5, rng)
		b.ReportAllocs()
		warm(b, round)
		for i := 0; i < b.N; i++ {
			if err := round(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentLocalRounds is BenchmarkLocalTrainRound/mnist-cnn with
// GOMAXPROCS trainers at once: the state every engine is in for most of a
// round. One op is one client's local round; its allocs/op stay those of the
// lone serial round, because no product is split onto a core another round
// holds. Every trainer keeps a local-round mark of its own until all have
// finished, so the run's tail (one trainer left, splitting as a lone caller
// should) does not leak into the count.
func BenchmarkConcurrentLocalRounds(b *testing.B) {
	b.Run("mnist-cnn", func(b *testing.B) {
		rounds := make([]func() error, runtime.GOMAXPROCS(0))
		for i := range rounds {
			id := int64(i + 1)
			rounds[i] = localRound(nn.NewCNN(paperCNN, xrand.New(1)), randomSet(20, []int{1, 28, 28}, 10, xrand.New(1+id)), 2, xrand.New(100+id))
			warm(b, rounds[i])
		}
		var trainers atomic.Int64
		var running sync.WaitGroup
		running.Add(len(rounds))
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			round := rounds[trainers.Add(1)-1]
			tensor.EnterLocalRound()
			defer func() {
				running.Done()
				running.Wait()
				tensor.LeaveLocalRound()
			}()
			for pb.Next() {
				if err := round(); err != nil {
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
		net := nn.NewCNN(paperCNN, xrand.New(1))
		dim := int64(net.NumParams())
		round := localRound(net, randomSet(20, []int{1, 28, 28}, 10, xrand.New(2)), 2, xrand.New(3))
		col := telemetry.NewCollector(telemetry.NewRegistry())
		obs := []telemetry.Observer{col}
		// Warm the per-engine handle cache so the loop is steady state.
		col.OnRound(telemetry.RoundEvent{Engine: telemetry.EngineSync, Accuracy: math.NaN()})
		var cumBytes int64
		b.ReportAllocs()
		warm(b, round)
		for i := 0; i < b.N; i++ {
			if err := round(); err != nil {
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

// BenchmarkAggregatorFold is what the driver of sim_wide_q8's round still
// does with the uploads once the workers have added them: merge GOMAXPROCS
// dense worker partials of 100,100 coordinates, round the sum once into the
// Aggregator's next update buffer, check it is finite and close the round
// (mean, apply). `-cpu 1` is a lone worker's round (no merge), `-cpu 2`
// merges two. An op allocates nothing.
// BenchmarkShardAdd prices the adds themselves, which run on the workers.
func BenchmarkAggregatorFold(b *testing.B) {
	const dim, uploads = 100_100, 192
	workers := make([]worker, runtime.GOMAXPROCS(0))
	for i := range workers {
		workers[i].acc = shard.New(dim)
		workers[i].acc.Add(xrand.New(int64(i)).NormVec(dim, 0, 0.01))
	}
	first := xrand.New(0).NormVec(dim, 0, 0.01)
	replies := make([]Reply, uploads)
	accepted := make([]int, uploads)
	for i := range replies {
		replies[i], accepted[i] = Reply{Upload: true}, i
	}
	agg := NewAggregator(telemetry.EngineSim, make([]float64, dim), uploads, Vanilla{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // restore the first partial, which the merge sums into
		workers[0].acc.Reset(dim)
		workers[0].acc.Add(first)
		b.StartTimer()
		if _, _, err := agg.Fold(i+1, uploads, accepted, replies, merge(workers)); err != nil {
			b.Fatal(err)
		}
	}
}
