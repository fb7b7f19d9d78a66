package fl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/gaia"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

func nan() float64         { return math.NaN() }
func isNaN(v float64) bool { return math.IsNaN(v) }

// Schedule is what tells the synchronous engines apart: per round, which
// clients train and whose replies count. The loop calls Participants and
// Accept on its own goroutine and Packed on the worker right after client
// c's Pack, so Packed may touch only c's state. Packed's verdict is final:
// the worker folds the upload of a reply it accepts and keeps no copy, so
// Accept must return exactly the trained clients whose Packed returned true,
// or the round fails. Replies reach Accept without their Delta.
type Schedule interface {
	Participants(t int) []int                                    // distinct, ascending; read until Accept returns
	Packed(t, c int, r *Reply) bool                              // r as Pack priced it; whether Accept will take it if the round completes
	Accept(t int, trained []int, replies []Reply) ([]int, error) // an ascending subset of trained
}

// Run executes Algorithm 1 on the synchronous loop under FedAvg's fraction
// sampling, accepting every sampled reply. Only Run records the Fig. 1–3
// traces: Gaia significance, Eq. 8 and ClientParams.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	streams := make([]*xrand.Stream, len(cfg.ClientData))
	for c := range streams {
		streams[c] = ClientStream(cfg.Seed, c)
	}
	return run(cfg, telemetry.EngineSync, newSampler(len(streams), cfg.ClientFraction, cfg.Seed), streams, true)
}

// RunSchedule executes the synchronous loop under s, which replaces
// ClientFraction: client c trains on ClientData[c] drawing from streams[c],
// and the events carry the engine label.
//
//cmfl:deterministic
func RunSchedule(cfg Config, engine string, s Schedule, streams []*xrand.Stream) (*Result, error) {
	return run(cfg, engine, s, streams, false)
}

// sampler is Run's schedule: every client, or FedAvg's uniform sample of
// max(1, fraction·n) clients a round from the "fl-sampler" stream.
type sampler struct {
	ids []int
	k   int
	rng *xrand.Stream // nil at full participation
}

func newSampler(n int, fraction float64, seed int64) *sampler {
	s := &sampler{ids: make([]int, n), k: n}
	for c := range s.ids {
		s.ids[c] = c
	}
	if fraction > 0 && fraction < 1 {
		s.k, s.rng = max(1, int(fraction*float64(n))), xrand.Derive(seed, "fl-sampler", 0)
	}
	return s
}

func (s *sampler) Participants(int) []int {
	if s.rng != nil {
		slices.Sort(s.rng.PermInto(s.ids, len(s.ids))[:s.k])
	}
	return s.ids[:s.k]
}

func (*sampler) Packed(int, int, *Reply) bool { return true }

func (*sampler) Accept(_ int, trained []int, _ []Reply) ([]int, error) { return trained, nil }

// worker is what one training goroutine reuses across clients and rounds: a
// model replica, which the solver reloads from the broadcast per client, the
// solver and codec scratch, the delta buffer it lends each client's reply,
// and its partial sum of the round's accepted uploads.
type worker struct {
	net    *nn.Network
	sc     Scratch
	delta  []float64
	acc    *shard.Accumulator
	client int // the client it failed on this round, with err
	err    error
}

// merge sums every worker's partial into the first one's and returns it.
func merge(workers []worker) *shard.Accumulator {
	for i := 1; i < len(workers); i++ {
		workers[0].acc.Merge(workers[i].acc)
	}
	return workers[0].acc
}

// run is the synchronous round loop of Algorithm 1, written once. Memory that
// serves one client at a time is per worker, and so is the sum of the
// uploads: each worker adds the ones its schedule accepts as it packs them.
// What outlives a round is per client: the training stream, the EF residual
// and a reply slot without a delta. traced adds the Fig. 1–3 traces, which
// only Run pays for.
func run(cfg Config, engine string, sched Schedule, streams []*xrand.Stream, traced bool) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	n := len(cfg.ClientData)
	if len(streams) != n {
		return nil, fmt.Errorf("fl: %d training streams for %d clients", len(streams), n)
	}
	step := ClientStep{
		Epochs: cfg.Epochs, Batch: cfg.Batch, ProxMu: cfg.ProxMu,
		DPClip: cfg.DPClip, DPNoiseSigma: cfg.DPNoiseSigma,
		Filter: cfg.Filter, Compressor: cfg.Compressor,
	}
	if step.Filter == nil {
		step.Filter = Vanilla{}
	}
	global := cfg.Model()
	agg := newAggregator(engine, global.ParamVector(), n, step.Filter, cfg.Observers, cfg.FeedbackStaleness)
	agg.momentum = cfg.ServerMomentum
	agg.Eval = Evaluation{Net: global, Test: cfg.TestData, Every: cfg.EvalEvery, Last: cfg.Rounds, Batch: cfg.EvalBatch, Target: cfg.TargetAccuracy}

	residuals := make([][]float64, n) // nil rows without error feedback
	if cfg.Compressor != nil && cfg.ErrorFeedback {
		for c := range residuals {
			residuals[c] = make([]float64, len(agg.Params))
		}
	}
	res := &Result{SkipCounts: agg.SkipCounts, FilterName: step.Filter.Name()}
	var significance, prevUpdate []float64 // the Fig. 2a and Eq. 8 traces
	if traced {
		significance = make([]float64, n)
		res.ClientParams = make([][]float64, n)
		for c := range res.ClientParams { // what a client that never trains reports
			res.ClientParams[c] = slices.Clone(agg.Params)
		}
	}
	replies := make([]Reply, n)
	taken := make([]bool, n) // client c's Packed verdict this round
	workers := make([]worker, cfg.Parallelism)
	for w := range workers {
		workers[w].net, workers[w].acc = cfg.Model(), shard.New(0)
	}

	var b Broadcast
	client := func(w *worker, c int) (err error) {
		r := &replies[c]
		r.Delta, w.sc.Residual = w.delta, residuals[c]
		defer func() { w.delta, r.Delta = r.Delta, nil }()
		if err = step.Train(&w.sc, w.net, cfg.ClientData[c], streams[c], &b, r); err != nil {
			return err
		}
		// The traces see the post-DP delta, before Pack makes it lossy.
		if traced {
			w.net.ParamsInto(res.ClientParams[c])
			if significance[c], err = gaia.Significance(r.Delta, b.Params); err != nil {
				return err
			}
		}
		if _, err = step.Pack(&w.sc, r); err != nil {
			return err
		}
		if taken[c] = sched.Packed(b.Round, c, r); taken[c] && r.Upload {
			w.acc.Add(r.Delta)
		}
		return nil
	}

	for t := 1; t <= cfg.Rounds; t++ {
		b = agg.Begin(t, cfg.LR.At(t))
		trained := sched.Participants(t)
		for w := range workers {
			workers[w].acc.Reset(len(agg.Params))
		}
		if c, err := train(workers, trained, client); err != nil {
			return nil, fmt.Errorf("fl: round %d client %d: %w", t, c, err)
		}
		accepted, err := sched.Accept(t, trained, replies)
		if err == nil {
			err = checkVerdicts(t, trained, accepted, taken)
		}
		if err != nil {
			return nil, err
		}

		done, err := agg.Finish(t, len(trained), accepted, replies, merge(workers), func(st *RoundStats, update []float64) {
			if traced { // Run accepts every client that trained
				var sig shard.Scalar
				for _, c := range accepted {
					sig.Add(significance[c])
				}
				st.MeanSignificance = mean(&sig, len(accepted))
				if update != nil {
					if du, err := core.DeltaUpdate(prevUpdate, update); err == nil { // a length mismatch before the first
						st.DeltaUpdate = du
					}
					prevUpdate = append(prevUpdate[:0], update...)
				}
			}
			res.History = append(res.History, *st)
		})
		if err != nil {
			return nil, fmt.Errorf("fl: %w", err)
		}
		if done {
			break
		}
	}
	res.FinalParams = append([]float64(nil), agg.Params...)
	return res, nil
}

// checkVerdicts holds the schedule to its Packed verdicts: accepted, which
// Accept returned for round t, must be exactly the clients of trained whose
// verdict in taken was true, in ascending order. The workers have folded
// those uploads and no others, and kept none of them.
func checkVerdicts(t int, trained, accepted []int, taken []bool) error {
	i := 0
	for _, c := range trained {
		in := i < len(accepted) && accepted[i] == c
		if in {
			i++
		}
		switch {
		case in && !taken[c]:
			return fmt.Errorf("fl: round %d client %d: the schedule accepted a reply its Packed rejected", t, c)
		case !in && taken[c]:
			return fmt.Errorf("fl: round %d client %d: the schedule dropped a reply its Packed accepted", t, c)
		}
	}
	if i < len(accepted) {
		return fmt.Errorf("fl: round %d client %d: accepted outside the ascending list of trained clients", t, accepted[i])
	}
	return nil
}

// mean is s's exact sum over n terms, rounded once; NaN over none.
func mean(s *shard.Scalar, n int) float64 {
	if n == 0 {
		return nan()
	}
	return s.Round() / float64(n)
}

// train runs fn for every listed client on the workers, which claim
// ascending chunks of the list as they go. A chunk is at most 1/64 of a
// worker's share, so the round's tail, where one worker trains alone and its
// products split onto the idle cores, is at most one short chunk; contiguous
// halves leave whatever drift accumulates over the whole round. fn touches
// only its worker's memory and the client's, so how the list falls onto the
// workers cannot show in the result. A worker stops at its first failure,
// and every client below it was claimed and has run, so the lowest failure
// across workers is the lowest failing client's. A worker's whole share,
// every turn from the solve to the fold, is one local round, so the other
// workers' products are not split onto its core while it has clients left.
func train(workers []worker, ids []int, fn func(w *worker, c int) error) (int, error) {
	chunk := max(1, len(ids)/(64*len(workers)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range workers {
		w := &workers[i]
		w.err = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			tensor.EnterLocalRound()
			defer tensor.LeaveLocalRound()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(ids) {
					return
				}
				for _, c := range ids[lo:min(lo+chunk, len(ids))] {
					if w.err = fn(w, c); w.err != nil {
						w.client = c
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	failed, err := 0, error(nil)
	for _, w := range workers {
		if w.err != nil && (err == nil || w.client < failed) {
			failed, err = w.client, w.err
		}
	}
	return failed, err
}

// LocalTrain runs E epochs of minibatch SGD on data starting from the
// broadcast global parameter vector and returns the resulting update delta
// and mean batch loss: LocalTrainProx without the proximal term.
func LocalTrain(net *nn.Network, data *dataset.Set, global []float64, lr float64, epochs, batch int, rng *xrand.Stream) (delta []float64, loss float64, err error) {
	return LocalTrainProx(net, data, global, lr, epochs, batch, 0, rng)
}

// LocalTrainProx is LocalTrain with FedProx's proximal term: every SGD step
// additionally applies the gradient of μ/2·‖w − w_global‖², pulling the
// local solution toward the broadcast model. mu = 0 recovers LocalTrain. It
// runs the one local solver on a workspace of its own and returns a fresh
// delta; the engines reach the solver through ClientStep.Train, which reuses
// theirs.
func LocalTrainProx(net *nn.Network, data *dataset.Set, global []float64, lr float64, epochs, batch int, mu float64, rng *xrand.Stream) (delta []float64, loss float64, err error) {
	var sc Scratch
	return solve(&sc, net, data, global, lr, epochs, batch, mu, rng, nil)
}

// solve is the single local-optimisation code path of the repository. It
// loads global into net, runs the epochs on sc's sample order and minibatch,
// and writes local − global into delta's backing array when its capacity
// suffices. The seeded permutation per epoch is the SGD schedule.
func solve(sc *Scratch, net *nn.Network, data *dataset.Set, global []float64, lr float64, epochs, batch int, mu float64, rng *xrand.Stream, delta []float64) ([]float64, float64, error) {
	if err := net.SetParamVector(global); err != nil {
		return nil, 0, err
	}
	var lossSum float64
	batches := 0
	n := data.Len()
	for e := 0; e < epochs; e++ {
		sc.perm = rng.PermInto(sc.perm, n)
		for lo := 0; lo < n; lo += batch {
			data.GatherInto(&sc.mb, sc.perm[lo:min(lo+batch, n)])
			//cmfl:order-pinned SGD minibatches fold in schedule order; the seeded permutation is the algorithm
			lossSum += nn.TrainBatch(net, sc.mb.X, sc.mb.Y, lr)
			if mu > 0 {
				// Proximal pull toward the broadcast model, applied in place.
				if err := net.DecayToward(global, lr*mu); err != nil {
					return nil, 0, err
				}
			}
			batches++
		}
	}
	delta = net.DeltaInto(delta, global)
	return delta, lossSum / math.Max(1, float64(batches)), nil
}

// Evaluate computes test accuracy in bounded-size forward batches; NaN
// without test data. Every engine that reports accuracy calls it.
func Evaluate(net *nn.Network, test *dataset.Set, evalBatch int) float64 {
	if test == nil || test.Len() == 0 {
		return nan()
	}
	correct := 0
	for lo := 0; lo < test.Len(); lo += evalBatch {
		x, y := test.BatchView(lo, min(lo+evalBatch, test.Len()))
		pred := nn.Argmax(net.Forward(x))
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Len())
}

func validate(cfg *Config) error {
	switch {
	case cfg.Model == nil:
		return errors.New("fl: Config.Model is required")
	case len(cfg.ClientData) == 0:
		return errors.New("fl: at least one client shard is required")
	case cfg.Epochs <= 0:
		return errors.New("fl: Epochs must be positive")
	case cfg.Batch <= 0:
		return errors.New("fl: Batch must be positive")
	case cfg.LR == nil:
		return errors.New("fl: LR schedule is required")
	case cfg.Rounds <= 0:
		return errors.New("fl: Rounds must be positive")
	}
	for i, d := range cfg.ClientData {
		if d == nil || d.Len() == 0 {
			return fmt.Errorf("fl: client %d has no data", i)
		}
	}
	if cfg.EvalEvery == 0 {
		cfg.EvalEvery = 1
	}
	if cfg.EvalBatch <= 0 {
		cfg.EvalBatch = 64
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	cfg.Parallelism = min(cfg.Parallelism, len(cfg.ClientData))
	if cfg.FeedbackStaleness <= 0 {
		cfg.FeedbackStaleness = 1
	}
	return nil
}
