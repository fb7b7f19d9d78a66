package fl

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/gaia"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

func nan() float64         { return math.NaN() }
func isNaN(v float64) bool { return math.IsNaN(v) }

// client is one simulated edge device: a model replica, a private shard, a
// private random stream for batch shuffling and DP noise, and its codec
// scratch (with the EF-SGD residual when error feedback is on).
type client struct {
	net     *nn.Network
	data    *dataset.Set
	rng     *xrand.Stream
	scratch Scratch
}

// newClients builds one client per shard, each on ClientStream(seed, i).
func newClients(cfg *Config) []*client {
	clients := make([]*client, len(cfg.ClientData))
	for i, data := range cfg.ClientData {
		clients[i] = &client{net: cfg.Model(), data: data, rng: ClientStream(cfg.Seed, i)}
	}
	return clients
}

// trainAll runs fn for every listed client on at most parallelism
// goroutines and returns the first error in list order.
func trainAll(ids []int, parallelism int, fn func(i int) error) (int, error) {
	errs := make([]error, len(ids))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for k, i := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(k, i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[k] = fn(i)
		}(k, i)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return ids[k], err
		}
	}
	return 0, nil
}

// Run executes a synchronous federated training following Algorithm 1: the
// client half is ClientStep, the server half Aggregator. What Run adds is
// FedAvg's fraction sampling, the optional n_k/n weights, and the Fig. 2/3
// traces (Gaia significance, mean relevance, Eq. 8).
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
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
	agg := NewAggregator(telemetry.EngineSync, global.ParamVector(), len(cfg.ClientData), step.Filter, cfg.Observers)
	agg.momentum = cfg.ServerMomentum
	agg.staleness = cfg.FeedbackStaleness

	clients := newClients(&cfg)
	var weights []float64 // FedAvg's n_k; nil is Algorithm 1's plain mean
	if cfg.WeightedAggregation {
		weights = make([]float64, len(clients))
	}
	for i, c := range clients {
		if cfg.Compressor != nil && cfg.ErrorFeedback {
			c.scratch.Residual = make([]float64, len(agg.Params))
		}
		if weights != nil {
			weights[i] = float64(c.data.Len())
		}
	}

	res := &Result{
		SkipCounts:   agg.SkipCounts,
		ClientParams: make([][]float64, len(clients)),
		FilterName:   step.Filter.Name(),
	}
	replies := make([]Reply, len(clients))
	significance := make([]float64, len(clients))
	var prevGlobalUpdate []float64 // for the Eq. 8 trace
	sampler := xrand.Derive(cfg.Seed, "fl-sampler", 0)

	for t := 1; t <= cfg.Rounds; t++ {
		b := agg.Begin(t, cfg.LR.At(t))
		participants := sampleClients(len(clients), cfg.ClientFraction, sampler)
		if i, err := trainAll(participants, cfg.Parallelism, func(i int) error {
			c, r := clients[i], &replies[i]
			err := step.Train(&c.scratch, c.net, c.data, c.rng, &b, r)
			if err != nil {
				return err
			}
			// The traces see the post-DP delta, before Pack makes it lossy.
			r.Relevance = b.Relevance(r.Delta)
			if significance[i], err = gaia.Significance(r.Delta, b.Params); err != nil {
				return err
			}
			_, err = step.Pack(&c.scratch, r)
			return err
		}); err != nil {
			return nil, fmt.Errorf("fl: round %d client %d: %w", t, i, err)
		}

		var lossSum, relSum, sigSum float64
		relCount := 0
		//cmfl:order-pinned diagnostic means over the participants in sampled order; only fl.Run publishes them and no engine is compared on them
		for _, i := range participants {
			lossSum += replies[i].Loss
			sigSum += significance[i]
			if !isNaN(replies[i].Relevance) {
				relSum += replies[i].Relevance
				relCount++
			}
		}
		ev, globalUpdate := agg.Fold(t, len(participants), participants, replies, weights)
		stats := RoundStats{
			RoundEvent:       ev,
			TrainLoss:        lossSum / float64(len(participants)),
			MeanSignificance: sigSum / float64(len(participants)),
			MeanRelevance:    nan(),
			DeltaUpdate:      nan(),
		}
		if relCount > 0 {
			stats.MeanRelevance = relSum / float64(relCount)
		}
		if globalUpdate != nil {
			if prevGlobalUpdate != nil {
				if du, err := core.DeltaUpdate(prevGlobalUpdate, globalUpdate); err == nil {
					stats.DeltaUpdate = du
				}
			}
			prevGlobalUpdate = append(prevGlobalUpdate[:0], globalUpdate...)
		}

		done, err := cfg.evalRound(global, agg.Params, &stats.RoundEvent)
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, stats)
		agg.Emit(stats.RoundEvent, participants, replies)
		if done {
			break
		}
	}

	res.FinalParams = append([]float64(nil), agg.Params...)
	for i, c := range clients {
		res.ClientParams[i] = c.net.ParamVector()
	}
	return res, nil
}

// evalRound fills ev.Accuracy on the rounds EvalEvery selects (and the last
// one) and reports whether TargetAccuracy has been reached.
func (cfg *Config) evalRound(global *nn.Network, params []float64, ev *telemetry.RoundEvent) (done bool, err error) {
	if cfg.EvalEvery <= 0 || (ev.Round%cfg.EvalEvery != 0 && ev.Round != cfg.Rounds) {
		return false, nil
	}
	if err := global.SetParamVector(params); err != nil {
		return false, fmt.Errorf("fl: broadcast to evaluator: %w", err)
	}
	ev.Accuracy = Evaluate(global, cfg.TestData, cfg.EvalBatch)
	return cfg.TargetAccuracy > 0 && !isNaN(ev.Accuracy) && ev.Accuracy >= cfg.TargetAccuracy, nil
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
	delta = net.ParamsInto(delta) // turned into local − global in place
	tensor.Axpy(-1, global, delta)
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
		hi := lo + evalBatch
		if hi > test.Len() {
			hi = test.Len()
		}
		x, y := test.BatchView(lo, hi)
		pred := nn.Argmax(net.Forward(x))
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Len())
}

// sampleClients returns the participant indices for one round: all clients
// at full participation, otherwise a uniform sample of max(1, fraction·D).
func sampleClients(d int, fraction float64, rng *xrand.Stream) []int {
	if fraction <= 0 || fraction >= 1 {
		all := make([]int, d)
		for i := range all {
			all[i] = i
		}
		return all
	}
	k := int(fraction * float64(d))
	if k < 1 {
		k = 1
	}
	return rng.Perm(d)[:k]
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
		cfg.Parallelism = len(cfg.ClientData)
	}
	if cfg.FeedbackStaleness <= 0 {
		cfg.FeedbackStaleness = 1
	}
	return nil
}
