package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// Workload is a ready-to-simulate population: a model factory and one data
// shard per client.
type Workload struct {
	Model  func() *nn.Network
	Shards []*dataset.Set
}

// SyntheticWorkload builds a gaussian-blob classification population sized
// for very large client counts: `classes` well-separated class centers, and
// per client a private shard of `samples` points drawn around those centers
// with a per-client mean offset — the same structural non-IIDness the
// dataset package gives the paper workloads (each client sees a biased,
// partially tangential view of the collaborative optimum), at a per-client
// memory cost of samples×features float64s.
//
// The model is a logistic classifier (features → classes), initialised from
// a stream derived from seed alone, so every Model() call — server and
// every worker shard — starts from identical parameters. All generation
// randomness derives from (seed, purpose, client) via compact streams;
// building a million-client workload allocates no 5 KB generator tables.
//
// The class centers are drawn first, serially. The clients are then built
// on GOMAXPROCS workers, and client c draws only from its own
// (seed, "sim-data", c) stream, so the population's bits do not depend on
// the worker count.
func SyntheticWorkload(clients, features, classes, samples int, seed int64) (Workload, error) {
	return syntheticWorkload(clients, features, classes, samples, seed, runtime.GOMAXPROCS(0))
}

// chunkFloats is the work a build worker claims at once, in generated
// float64s: a few hundred narrow clients, or one wide one, so a wide
// population of a few hundred clients still spreads over every worker.
const chunkFloats = 1 << 15

// syntheticWorkload is SyntheticWorkload built on at most workers goroutines.
func syntheticWorkload(clients, features, classes, samples int, seed int64, workers int) (Workload, error) {
	if clients <= 0 || features <= 0 || classes <= 1 || samples <= 0 {
		return Workload{}, fmt.Errorf("sim: workload wants clients>0, features>0, classes>1, samples>0; got %d/%d/%d/%d", clients, features, classes, samples)
	}
	// Class centers on a scaled simplex-ish layout: one coordinate block
	// per class pushed positive, drawn once for the whole population.
	crng := xrand.DeriveCompact(seed, "sim-centers", 0)
	centers := make([][]float64, classes)
	for k := range centers {
		centers[k] = crng.NormVec(features, 0, 0.3)
		for f := k % features; f < features; f += classes {
			centers[k][f] += 2.0
		}
	}

	// Workers claim ascending chunks of client ids, each re-pointing one
	// stream at client c's key and reusing one offset buffer.
	shards := make([]*dataset.Set, clients)
	chunk := max(1, chunkFloats/((samples+1)*features))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, (clients+chunk-1)/chunk) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := new(xrand.Compact)
			offset := make([]float64, features)
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= clients {
					return
				}
				for c := lo; c < min(lo+chunk, clients); c++ {
					rng.Rederive(seed, "sim-data", c)
					shards[c] = syntheticShard(&rng.Stream, offset, centers, c%classes, samples)
				}
			}
		}()
	}
	wg.Wait()

	model := func() *nn.Network {
		return nn.NewLogistic(features, classes, xrand.Derive(seed, "sim-init", 0))
	}
	return Workload{Model: model, Shards: shards}, nil
}

// syntheticShard draws one client's shard from rng, positioned at the
// client's key: the per-client mean offset into offset, then the samples,
// each from the primary class with probability 0.7.
func syntheticShard(rng *xrand.Stream, offset []float64, centers [][]float64, primary, samples int) *dataset.Set {
	// Per-client mean offset: the non-IID bias shared by every sample on
	// this client.
	rng.NormVecInto(offset, 0, 0.5)
	features, classes := len(offset), len(centers)
	set := &dataset.Set{X: tensor.New(samples, features), Y: make([]int, samples)}
	for s := 0; s < samples; s++ {
		label := primary
		if rng.Float64() >= 0.7 {
			label = rng.Intn(classes)
		}
		row := set.X.Data[s*features : (s+1)*features]
		for f := 0; f < features; f++ {
			row[f] = centers[label][f] + offset[f] + 0.8*rng.Norm()
		}
		set.Y[s] = label
	}
	return set
}
