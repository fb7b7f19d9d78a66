package fl

import (
	"math"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// TestTheorem1ConvergenceOnConvexProblem checks the paper's convergence
// guarantee empirically: on a convex problem (softmax regression — the
// assumption of Theorem 1) with the prescribed decaying schedules
// η_t = η0/√t and v_t = v0/√t, CMFL's time-averaged excess loss must shrink
// as training proceeds (lim 1/T·R[x̃] → 0 means late-phase mean loss
// approaches the floor).
func TestTheorem1ConvergenceOnConvexProblem(t *testing.T) {
	const (
		clients = 10
		dim     = 20
		rounds  = 60
	)
	// Linearly separable Gaussian blobs: the convex loss can approach 0.
	gRng := xrand.New(61)
	centers := make([][]float64, 4)
	for c := range centers {
		centers[c] = gRng.NormVec(dim, 0, 3)
	}
	makeSet := func(n int, rng *xrand.Stream) *dataset.Set {
		s := &dataset.Set{X: tensor.New(n, dim), Y: make([]int, n)}
		for i := 0; i < n; i++ {
			c := rng.Intn(4)
			s.Y[i] = c
			row := s.X.Data[i*dim : (i+1)*dim]
			for j := 0; j < dim; j++ {
				row[j] = centers[c][j] + 0.4*rng.Norm()
			}
		}
		return s
	}
	shards := make([]*dataset.Set, clients)
	for k := range shards {
		shards[k] = makeSet(24, xrand.Derive(62, "shard", k))
	}
	res, err := Run(Config{
		Model:      func() *nn.Network { return nn.NewLogistic(dim, 4, xrand.Derive(63, "init", 0)) },
		ClientData: shards,
		TestData:   makeSet(100, xrand.New(64)),
		Epochs:     2,
		Batch:      4,
		LR:         core.InvSqrt{V0: 0.2},
		Filter:     core.NewFilter(core.InvSqrt{V0: 0.8}),
		Rounds:     rounds,
		Seed:       65,
	})
	if err != nil {
		t.Fatal(err)
	}
	third := rounds / 3
	meanLoss := func(h []RoundStats) float64 {
		var s float64
		for _, r := range h {
			s += r.TrainLoss
		}
		return s / float64(len(h))
	}
	early := meanLoss(res.History[:third])
	late := meanLoss(res.History[rounds-third:])
	if late >= early/2 {
		t.Fatalf("time-averaged loss not converging: early %.4f, late %.4f", early, late)
	}
	if acc := res.FinalAccuracy(); acc < 0.95 {
		t.Fatalf("convex CMFL accuracy = %v, want >= 0.95", acc)
	}
	// And the regret trend must be monotone-ish: the last-quarter mean must
	// also beat the second quarter, not just the first.
	q2 := meanLoss(res.History[third : 2*third])
	if late >= q2 {
		t.Fatalf("loss rebounded late: quarter-2 %.4f, late %.4f", q2, late)
	}
}

// TestAggregationIsAverageOfUploads cross-checks Algorithm 1 line 8 against
// a hand-computed average for a tiny deterministic round.
func TestAggregationIsAverageOfUploads(t *testing.T) {
	cfg := digitLogisticConfig(t, 3, false)
	cfg.Rounds = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the three clients' local training by hand from the same
	// initial model and average their deltas.
	model := cfg.Model()
	start := model.ParamVector()
	want := make([]float64, len(start))
	for k := 0; k < 3; k++ {
		net := cfg.Model()
		delta, _, err := LocalTrain(net, cfg.ClientData[k], start, cfg.LR.At(1), cfg.Epochs, cfg.Batch, ClientStream(cfg.Seed, k))
		if err != nil {
			t.Fatal(err)
		}
		tensor.Axpy(1.0/3, delta, want)
	}
	for j := range want {
		got := res.FinalParams[j] - start[j]
		if math.Abs(got-want[j]) > 1e-12 {
			t.Fatalf("aggregated update[%d] = %v, want %v", j, got, want[j])
		}
	}
}

// TestSeedChangesResults guards against accidentally shared randomness.
func TestSeedChangesResults(t *testing.T) {
	cfg1 := digitLogisticConfig(t, 4, true)
	cfg1.Rounds = 3
	r1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := digitLogisticConfig(t, 4, true)
	cfg2.Rounds = 3
	cfg2.Seed = cfg1.Seed + 1
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range r1.FinalParams {
		if r1.FinalParams[j] != r2.FinalParams[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical models")
	}
}
