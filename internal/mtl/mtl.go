// Package mtl implements a MOCHA-style federated multi-task learning
// substrate (Smith et al., NIPS'17) and the CMFL hook on top of it,
// reproducing the paper's Sec. V-B experiments.
//
// Each client (task) k trains its own linear SVM w_k on private data; the
// tasks are coupled through a relationship matrix Ω via the regulariser
// (λ/2)·tr(W Ω Wᵀ). The default Ω is the mean-regularised choice
// Ω = (I − 11ᵀ/m), which pulls every task toward the task average; Ω can
// optionally be re-learned from the task weights as
// Ω = (WᵀW)^{1/2} / tr((WᵀW)^{1/2}) using the Jacobi eigensolver.
//
// CMFL integration (paper Sec. IV-B "Extensions"): in MOCHA the global
// optimisation state is the task matrix W, so a client judges its update's
// relevance against the previous round's *collaborative* update — the
// average of the task updates aggregated by the server — exactly the
// feedback CMFL uses in single-model FL. Irrelevant Δw_k are withheld.
package mtl

import (
	"errors"
	"fmt"
	"sync"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// OmegaMode selects how the relationship matrix evolves.
type OmegaMode int

const (
	// OmegaMeanRegularized keeps Ω = I − 11ᵀ/m fixed (tasks pulled to mean).
	OmegaMeanRegularized OmegaMode = iota + 1
	// OmegaLearned periodically re-estimates Ω from the task weights.
	OmegaLearned
)

// Config describes one federated multi-task run.
type Config struct {
	// Clients holds one binary-labelled shard per task (labels 0/1).
	Clients []*dataset.Set
	// TestFraction of each client's samples is held out for evaluation.
	TestFraction float64

	// Lambda weighs the task-relationship regulariser.
	Lambda float64
	// LR is the (constant in the paper: 1e-4) learning-rate schedule.
	LR core.Schedule
	// Epochs is E, local passes per round (paper: 10).
	Epochs int
	// Batch is B, local minibatch size (paper: 3).
	Batch int
	// Rounds is the number of synchronous iterations.
	Rounds int

	// Filter gates task-update uploads; nil means always upload (MOCHA).
	Filter fl.UploadFilter

	// InitScale is the stddev of the random initial task weights (0 =
	// start at zero). A nonzero value mirrors training from random
	// initialisation, giving the accuracy-vs-rounds curve its dynamic
	// range on easily separable tasks.
	InitScale float64

	// Omega selects the relationship-matrix mode (default mean-regularised).
	Omega OmegaMode
	// OmegaEvery re-learns Ω every k rounds in OmegaLearned mode (default 10).
	OmegaEvery int

	// TargetAccuracy stops early when the weighted test accuracy reaches it.
	TargetAccuracy float64
	// Parallelism bounds concurrent task training (default: task count).
	Parallelism int
	Seed        int64

	// Observers receive live telemetry: one telemetry.ClientEvent per task
	// (in task order) followed by one telemetry.RoundEvent per round,
	// emitted synchronously from the engine goroutine.
	Observers []telemetry.Observer
}

// Result is the outcome of a Run.
type Result struct {
	// History holds one record per round. Accuracy is the sample-weighted
	// mean of the task models' test accuracies; MeanSignificance and
	// DeltaUpdate stay NaN.
	History []fl.RoundStats
	// Weights holds the final per-task weight vectors (d features + bias).
	Weights [][]float64
	// SkipCounts counts withheld updates per task over the run.
	SkipCounts []int
	// TaskAccuracies is each task's final test accuracy (the weighted mean
	// of these, by test-set size, is the History accuracy).
	TaskAccuracies []float64
	FilterName     string
}

// FinalAccuracy returns the last evaluated accuracy, or NaN if none.
func (r *Result) FinalAccuracy() float64 { return telemetry.FinalAccuracy(r.History) }

type task struct {
	train, test *dataset.Set
	rng         *xrand.Stream
}

// Run executes federated multi-task training. MOCHA's solver is its own;
// what follows it is Algorithm 1 as every engine runs it. Each task gates
// its update through fl.ClientStep against the round's broadcast with its
// own w_k as the model, so Gaia's significance sees the task model, and an
// fl.Aggregator closes the round: the collaborative feedback, the filter's
// round feedback, the pricing, the counters, the refusal of a non-finite sum
// and the telemetry. MOCHA has no global model, so the aggregator's Params
// only traces the sum of the collaborative updates; the accuracy is the task
// models'.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	m := len(cfg.Clients)
	dim := cfg.Clients[0].X.Dim(1) + 1 // +1 bias

	tasks := make([]*task, m)
	for k, set := range cfg.Clients {
		rng := xrand.Derive(cfg.Seed, "mtl-task", k)
		tasks[k] = splitTask(set, cfg.TestFraction, rng)
	}

	// W: m rows of dim weights; zero or random per InitScale.
	w := make([][]float64, m)
	for k := range w {
		if cfg.InitScale > 0 {
			w[k] = xrand.Derive(cfg.Seed, "mtl-init", k).NormVec(dim, 0, cfg.InitScale)
		} else {
			w[k] = make([]float64, dim)
		}
	}
	omega := meanRegularizedOmega(m)

	step := fl.ClientStep{Filter: cfg.Filter}
	res := &Result{FilterName: "mocha"}
	if cfg.Filter == nil {
		step.Filter = fl.Vanilla{}
	} else {
		res.FilterName = "mocha+" + cfg.Filter.Name()
	}
	agg := fl.NewAggregator(telemetry.EngineMTL, make([]float64, dim), m, step.Filter, cfg.Observers)
	agg.Eval.Target = cfg.TargetAccuracy
	res.SkipCounts = agg.SkipCounts
	all := make([]int, m) // every task takes part, and every reply counts
	for k := range all {
		all[k] = k
	}
	replies := make([]fl.Reply, m)
	errs := make([]error, m)
	sum := shard.New(dim)
	sem := make(chan struct{}, cfg.Parallelism)

	for t := 1; t <= cfg.Rounds; t++ {
		b := agg.Begin(t, cfg.LR.At(t))
		var wg sync.WaitGroup
		for k := 0; k < m; k++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int) {
				defer wg.Done()
				defer func() { <-sem }()
				r := &replies[k]
				r.Delta, r.Loss = localSolve(tasks[k], w, omega, k, cfg.Lambda, b.LR, cfg.Epochs, cfg.Batch)
				bk := b
				bk.Params = w[k]
				if errs[k] = step.Gate(tasks[k].rng, &bk, r); errs[k] == nil {
					_, errs[k] = step.Pack(nil, r) // no codec: Pack only prices
				}
			}(k)
		}
		wg.Wait()

		sum.Reset(dim)
		for k := range replies {
			if errs[k] != nil {
				return nil, fmt.Errorf("mtl: round %d task %d: %w", t, k, errs[k])
			}
			if r := &replies[k]; r.Upload {
				tensor.Axpy(1, r.Delta, w[k])
				sum.Add(r.Delta)
			}
		}
		if cfg.Omega == OmegaLearned && t%cfg.OmegaEvery == 0 {
			if next, err := learnOmega(w); err == nil {
				omega = next
			}
		}
		done, err := agg.Finish(t, m, all, replies, sum, func(st *fl.RoundStats, _ []float64) {
			st.Accuracy = weightedAccuracy(tasks, w)
			res.History = append(res.History, *st)
		})
		if err != nil {
			return nil, fmt.Errorf("mtl: %w", err)
		}
		if done {
			break
		}
	}

	res.Weights = make([][]float64, m)
	for k := range w {
		res.Weights[k] = append([]float64(nil), w[k]...)
	}
	res.TaskAccuracies = make([]float64, m)
	for k, tk := range tasks {
		res.TaskAccuracies[k] = float64(taskCorrect(tk, w[k])) / float64(tk.test.Len())
	}
	return res, nil
}

// taskCorrect counts the held-out samples of one task its model classifies
// right.
func taskCorrect(tk *task, w []float64) int {
	d := len(w) - 1
	correct := 0
	for i := 0; i < tk.test.Len(); i++ {
		score := w[d]
		for j, x := range tk.test.X.Data[i*d : (i+1)*d] {
			score += w[j] * x
		}
		pred := 0
		if score >= 0 {
			pred = 1
		}
		if pred == tk.test.Y[i] {
			correct++
		}
	}
	return correct
}

// weightedAccuracy is the sample-weighted mean test accuracy across tasks.
func weightedAccuracy(tasks []*task, w [][]float64) float64 {
	correct, total := 0, 0
	for k, tk := range tasks {
		correct += taskCorrect(tk, w[k])
		total += tk.test.Len()
	}
	return float64(correct) / float64(total)
}

// localSolve runs E epochs of subgradient descent on task k's hinge loss
// plus the Ω-coupled regulariser, starting from the broadcast W, and returns
// the delta of w_k and the mean minibatch hinge loss.
func localSolve(tk *task, w [][]float64, omega *tensor.Tensor, k int, lambda, lr float64, epochs, batch int) ([]float64, float64) {
	dim := len(w[k])
	local := append([]float64(nil), w[k]...)
	n := tk.train.Len()
	d := dim - 1
	m := len(w)
	// Regulariser gradient contribution from other tasks is constant during
	// the local solve (their weights are frozen at the broadcast values):
	// λ Σ_{j≠k} Ω_kj w_j. The own-task term λ Ω_kk w_k tracks local.
	regOther := make([]float64, dim)
	for j := 0; j < m; j++ {
		if j == k {
			continue
		}
		tensor.Axpy(lambda*omega.At(k, j), w[j], regOther)
	}
	okk := lambda * omega.At(k, k)

	grad := make([]float64, dim)
	var lossSum float64
	batches := 0
	for e := 0; e < epochs; e++ {
		order := tk.rng.Perm(n)
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			clear(grad)
			var hinge float64
			for _, idx := range order[lo:hi] {
				row := tk.train.X.Data[idx*d : (idx+1)*d]
				y := float64(tk.train.Y[idx])*2 - 1 // {0,1} -> {-1,+1}
				margin := local[d]                  // bias
				for j, x := range row {
					margin += local[j] * x
				}
				if y*margin < 1 {
					hinge += 1 - y*margin
					for j, x := range row {
						grad[j] -= y * x
					}
					grad[d] -= y
				}
			}
			inv := 1.0 / float64(hi-lo)
			lossSum += hinge * inv
			batches++
			for j := 0; j < dim; j++ {
				g := grad[j]*inv + regOther[j] + okk*local[j]
				local[j] -= lr * g
			}
		}
	}
	return tensor.Sub(local, w[k]), lossSum / float64(batches)
}

// meanRegularizedOmega returns Ω = I − 11ᵀ/m.
func meanRegularizedOmega(m int) *tensor.Tensor {
	o := tensor.New(m, m)
	inv := 1.0 / float64(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := -inv
			if i == j {
				v = 1 - inv
			}
			o.Set(i, j, v)
		}
	}
	return o
}

// learnOmega re-estimates Ω = (WᵀW)^{1/2} / tr((WᵀW)^{1/2}) from the task
// weight matrix (tasks as rows).
func learnOmega(w [][]float64) (*tensor.Tensor, error) {
	m, dim := len(w), len(w[0])
	wm := tensor.New(m, dim)
	for k, row := range w {
		copy(wm.Data[k*dim:(k+1)*dim], row)
	}
	gram := tensor.MatMulTransB(wm, wm) // m×m, PSD
	root, err := tensor.SymSqrt(gram)
	if err != nil {
		return nil, err
	}
	tr := tensor.Trace(root)
	if tr <= 1e-12 {
		return nil, errors.New("mtl: degenerate weight matrix, keeping previous Ω")
	}
	root.Scale(1 / tr)
	return root, nil
}

func splitTask(set *dataset.Set, testFraction float64, rng *xrand.Stream) *task {
	n := set.Len()
	nTest := int(float64(n) * testFraction)
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= n {
		nTest = n - 1
	}
	perm := rng.Perm(n)
	return &task{
		train: set.Subset(perm[nTest:]),
		test:  set.Subset(perm[:nTest]),
		rng:   rng,
	}
}

func validate(cfg *Config) error {
	switch {
	case len(cfg.Clients) == 0:
		return errors.New("mtl: at least one task is required")
	case cfg.Epochs <= 0:
		return errors.New("mtl: Epochs must be positive")
	case cfg.Batch <= 0:
		return errors.New("mtl: Batch must be positive")
	case cfg.LR == nil:
		return errors.New("mtl: LR schedule is required")
	case cfg.Rounds <= 0:
		return errors.New("mtl: Rounds must be positive")
	case cfg.Lambda < 0:
		return errors.New("mtl: Lambda must be non-negative")
	}
	d := -1
	for k, set := range cfg.Clients {
		if set == nil || set.Len() < 2 {
			return fmt.Errorf("mtl: task %d needs at least 2 samples", k)
		}
		if len(set.X.Shape) != 2 {
			return fmt.Errorf("mtl: task %d data must be [samples, features]", k)
		}
		if d == -1 {
			d = set.X.Dim(1)
		} else if set.X.Dim(1) != d {
			return fmt.Errorf("mtl: task %d feature dim %d != %d", k, set.X.Dim(1), d)
		}
	}
	if cfg.TestFraction <= 0 || cfg.TestFraction >= 1 {
		cfg.TestFraction = 0.2
	}
	if cfg.Omega == 0 {
		cfg.Omega = OmegaMeanRegularized
	}
	if cfg.OmegaEvery <= 0 {
		cfg.OmegaEvery = 10
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = len(cfg.Clients)
	}
	return nil
}
