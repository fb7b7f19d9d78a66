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
	"math"
	"sync"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/stats"
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

// RoundStats records one synchronous MTL round. The communication core is
// the embedded telemetry.RoundEvent (Participants is the task count m;
// Accuracy is the sample-weighted mean test accuracy across tasks).
type RoundStats struct {
	telemetry.RoundEvent

	// MeanRelevance is the client-mean CMFL relevance this round (NaN
	// before feedback exists).
	MeanRelevance float64
}

// Result is the outcome of a Run.
type Result struct {
	History []RoundStats
	// Weights holds the final per-task weight vectors (d features + bias).
	Weights [][]float64
	// SkipCounts counts withheld updates per task over the run.
	SkipCounts []int
	// TaskAccuracies is each task's final test accuracy (the weighted mean
	// of these, by test-set size, is the History accuracy).
	TaskAccuracies []float64
	FilterName     string
}

// FinalAccuracy returns the last round's accuracy.
func (r *Result) FinalAccuracy() float64 {
	if len(r.History) == 0 {
		return math.NaN()
	}
	return r.History[len(r.History)-1].Accuracy
}

// Trace converts the history into a stats.AccuracyTrace.
func (r *Result) Trace() *stats.AccuracyTrace {
	tr := &stats.AccuracyTrace{}
	for _, h := range r.History {
		tr.CumUploads = append(tr.CumUploads, h.CumUploads)
		tr.Accuracy = append(tr.Accuracy, h.Accuracy)
	}
	return tr
}

type task struct {
	train, test *dataset.Set
	rng         *xrand.Stream
}

// Run executes federated multi-task training.
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

	res := &Result{
		SkipCounts: make([]int, m),
		FilterName: "mocha",
	}
	if cfg.Filter != nil {
		res.FilterName = "mocha+" + cfg.Filter.Name()
	}

	feedback := make([]float64, dim) // zero: no feedback yet
	var feedbackSigns []int8
	cumUploads := 0
	var cumBytes int64

	type taskResult struct {
		delta     []float64
		upload    bool
		relevance float64
		err       error
	}
	results := make([]taskResult, m)
	sem := make(chan struct{}, cfg.Parallelism)

	for t := 1; t <= cfg.Rounds; t++ {
		lr := cfg.LR.At(t)
		haveFeedback := !core.AllZero(feedback)
		if haveFeedback {
			feedbackSigns = core.SignsInto(feedbackSigns, feedback)
		}
		var wg sync.WaitGroup
		for k := 0; k < m; k++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int) {
				defer wg.Done()
				defer func() { <-sem }()
				delta := localSolve(tasks[k], w, omega, k, cfg.Lambda, lr, cfg.Epochs, cfg.Batch)
				upload := true
				if cfg.Filter != nil {
					dec, err := cfg.Filter.Check(delta, w[k], feedback, t)
					if err != nil {
						results[k] = taskResult{err: err}
						return
					}
					upload = dec.Upload
				}
				// The reported relevance is Eq. 9 whatever the gate
				// decided with (a Gaia gate's metric is significance).
				rel := math.NaN()
				if haveFeedback {
					if r, err := core.SignAgreement(delta, feedbackSigns); err == nil {
						rel = r
					}
				}
				results[k] = taskResult{delta: delta, upload: upload, relevance: rel}
			}(k)
		}
		wg.Wait()

		uploaded := 0
		collab := make([]float64, dim)
		var relSum float64
		relCount := 0
		for k := 0; k < m; k++ {
			r := &results[k]
			if r.err != nil {
				return nil, fmt.Errorf("mtl: round %d task %d: %w", t, k, r.err)
			}
			if !math.IsNaN(r.relevance) {
				relSum += r.relevance
				relCount++
			}
			if r.upload {
				tensor.Axpy(1, r.delta, w[k])
				tensor.Axpy(1, r.delta, collab)
				uploaded++
			} else {
				res.SkipCounts[k]++
			}
		}
		if uploaded > 0 {
			tensor.ScaleVec(1/float64(uploaded), collab)
			feedback = collab
		}
		cumUploads += uploaded
		cumBytes += int64(uploaded)*int64(dim)*8 + int64(m-uploaded)*fl.SkipNotificationBytes

		if cfg.Omega == OmegaLearned && t%cfg.OmegaEvery == 0 {
			if next, err := learnOmega(w); err == nil {
				omega = next
			}
		}

		acc := weightedAccuracy(tasks, w)
		st := RoundStats{
			RoundEvent: telemetry.RoundEvent{
				Engine:         telemetry.EngineMTL,
				Round:          t,
				Participants:   m,
				Uploaded:       uploaded,
				Skipped:        m - uploaded,
				CumUploads:     cumUploads,
				CumUplinkBytes: cumBytes,
				Accuracy:       acc,
			},
			MeanRelevance: math.NaN(),
		}
		if relCount > 0 {
			st.MeanRelevance = relSum / float64(relCount)
		}
		res.History = append(res.History, st)
		if len(cfg.Observers) > 0 {
			for k := 0; k < m; k++ {
				uplink := int64(dim) * 8
				if !results[k].upload {
					uplink = fl.SkipNotificationBytes
				}
				telemetry.EmitClient(cfg.Observers, telemetry.ClientEvent{
					Engine:      telemetry.EngineMTL,
					Round:       t,
					Client:      k,
					Uploaded:    results[k].upload,
					Relevance:   results[k].relevance,
					UplinkBytes: uplink,
				})
			}
			telemetry.EmitRound(cfg.Observers, st.RoundEvent)
		}
		if cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy {
			break
		}
	}

	res.Weights = make([][]float64, m)
	for k := range w {
		res.Weights[k] = append([]float64(nil), w[k]...)
	}
	res.TaskAccuracies = make([]float64, m)
	for k, tk := range tasks {
		res.TaskAccuracies[k] = taskAccuracy(tk, w[k])
	}
	return res, nil
}

// taskAccuracy evaluates one task's model on its held-out split.
func taskAccuracy(tk *task, w []float64) float64 {
	d := len(w) - 1
	correct := 0
	for i := 0; i < tk.test.Len(); i++ {
		row := tk.test.X.Data[i*d : (i+1)*d]
		score := w[d]
		for j, x := range row {
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
	if tk.test.Len() == 0 {
		return math.NaN()
	}
	return float64(correct) / float64(tk.test.Len())
}

// localSolve runs E epochs of subgradient descent on task k's hinge loss
// plus the Ω-coupled regulariser, starting from the broadcast W, and returns
// the delta of w_k.
func localSolve(tk *task, w [][]float64, omega *tensor.Tensor, k int, lambda, lr float64, epochs, batch int) []float64 {
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
	for e := 0; e < epochs; e++ {
		order := tk.rng.Perm(n)
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			for i := range grad {
				grad[i] = 0
			}
			for _, idx := range order[lo:hi] {
				row := tk.train.X.Data[idx*d : (idx+1)*d]
				y := float64(tk.train.Y[idx])*2 - 1 // {0,1} -> {-1,+1}
				margin := local[d]                  // bias
				for j, x := range row {
					margin += local[j] * x
				}
				if y*margin < 1 {
					for j, x := range row {
						grad[j] -= y * x
					}
					grad[d] -= y
				}
			}
			inv := 1.0 / float64(hi-lo)
			for j := 0; j < dim; j++ {
				g := grad[j]*inv + regOther[j] + okk*local[j]
				local[j] -= lr * g
			}
		}
	}
	return tensor.Sub(local, w[k])
}

// weightedAccuracy is the sample-weighted mean test accuracy across tasks.
func weightedAccuracy(tasks []*task, w [][]float64) float64 {
	correct, total := 0, 0
	for k, tk := range tasks {
		d := len(w[k]) - 1
		for i := 0; i < tk.test.Len(); i++ {
			row := tk.test.X.Data[i*d : (i+1)*d]
			score := w[k][d]
			for j, x := range row {
				score += w[k][j] * x
			}
			pred := 0
			if score >= 0 {
				pred = 1
			}
			if pred == tk.test.Y[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(correct) / float64(total)
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
