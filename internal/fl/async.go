package fl

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

// The asynchronous server's mix: an update with staleness s is applied as
// x ← x + mixAlpha/√(1+s) · u, and the feedback clients check against is the
// moving average f ← feedbackDecay·f + (1−feedbackDecay)·applied.
const (
	mixAlpha      = 0.6
	feedbackDecay = 0.5
)

// AsyncConfig describes an asynchronous federated run: clients train at
// their own (simulated) speeds and the server applies each update the
// moment it arrives, scaled down by its staleness — a FedAsync-style
// extension of the paper's synchronous Algorithm 1.
//
// CMFL ports directly: a client checks its update's relevance against an
// exponential moving average of recently applied global updates (the async
// analogue of "the previous global update") and withholds irrelevant ones.
type AsyncConfig struct {
	Model      func() *nn.Network
	ClientData []*dataset.Set
	TestData   *dataset.Set

	Epochs int
	Batch  int
	LR     core.Schedule
	Filter UploadFilter

	// StragglerFactor bounds the personal speed factor each client draws in
	// [0.5, StragglerFactor); one local training takes speed × U[0.5, 1.5)
	// units of virtual time, so slow clients produce stale updates.
	// Default 4.
	StragglerFactor float64

	// Updates is the total number of client completions to simulate (the
	// async analogue of Rounds × D).
	Updates int
	// EvalEvery evaluates accuracy every k applied-or-skipped updates
	// (default: number of clients).
	EvalEvery int
	// EvalBatch bounds evaluation batches (default 64).
	EvalBatch int

	TargetAccuracy float64
	Seed           int64

	// Observers receive live telemetry. Each client completion closes as a
	// one-participant round: one telemetry.ClientEvent, then one
	// telemetry.RoundEvent with Round set to the 1-based completion index.
	Observers []telemetry.Observer
}

// AsyncEvent records one client completion: the one-participant round it
// closed, and where it sits in the simulated timeline.
type AsyncEvent struct {
	RoundStats
	// Time is the virtual completion time.
	Time float64
	// Client is the finishing client.
	Client int
	// Staleness counts how many global model versions were applied between
	// this client's pull and its completion.
	Staleness int
}

// AsyncResult is the outcome of RunAsync.
type AsyncResult struct {
	Events      []AsyncEvent
	FinalParams []float64
	SkipCounts  []int
	// MeanStaleness is the average staleness of applied updates.
	MeanStaleness float64
}

// FinalAccuracy returns the last evaluated accuracy, or NaN.
func (r *AsyncResult) FinalAccuracy() float64 { return telemetry.FinalAccuracy(r.Events) }

// completion is a client's pending finish; every client has exactly one.
type completion struct {
	at      float64
	client  int
	version int // global version the client pulled
	seq     int // tie-breaker for determinism
}

// earlier orders completions by time, then by when they were scheduled.
func earlier(a, b completion) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) }

// RunAsync executes the asynchronous simulation. Each completion runs
// Algorithm 1's client half, ClientStep's Train and Pack, against a
// Broadcast of the model the client pulled and the feedback average, then
// closes as a one-participant round through Aggregator.Finish: the
// staleness-damped update is the round's sum, so the evaluation, the
// telemetry, the filter's feedback and the refusal of a non-finite update
// are the synchronous engines'. On such a refusal it returns the run so far,
// the model as it stood before that update, with the error.
//
//cmfl:deterministic
func RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
	if err := validateAsync(&cfg); err != nil {
		return nil, err
	}
	step := ClientStep{Epochs: cfg.Epochs, Batch: cfg.Batch, Filter: cfg.Filter}
	if step.Filter == nil {
		step.Filter = Vanilla{}
	}
	global := cfg.Model()
	d := len(cfg.ClientData)
	agg := NewAggregator(telemetry.EngineAsync, global.ParamVector(), d, step.Filter, cfg.Observers)
	agg.Eval = Evaluation{Net: global, Test: cfg.TestData, Every: cfg.EvalEvery, Last: cfg.Updates, Batch: cfg.EvalBatch, Target: cfg.TargetAccuracy}
	params := agg.Params
	// Every completion trains on one network, scratch and reply: the solver
	// reloads the network from the client's pulled snapshot.
	net := cfg.Model()
	var sc Scratch
	var r Reply
	replies := make([]Reply, d) // Finish reads the finishing client's slot
	sum := shard.New(len(params))

	rngs := make([]*xrand.Stream, d)
	speeds := make([]float64, d)
	pulled := make([][]float64, d) // model snapshot each client trains from
	durRng := xrand.Derive(cfg.Seed, "fl-async-durations", 0)
	for k := 0; k < d; k++ {
		rngs[k] = ClientStream(cfg.Seed, k)
		speeds[k] = 0.5 + (cfg.StragglerFactor-0.5)*durRng.Float64()
		pulled[k] = append([]float64(nil), params...)
	}
	next := make([]completion, d) // client k's pending completion
	version, seq := 0, 0
	schedule := func(k int, now float64) {
		seq++
		next[k] = completion{at: now + speeds[k]*(0.5+durRng.Float64()), client: k, version: version, seq: seq}
	}
	for k := 0; k < d; k++ {
		schedule(k, 0)
	}

	feedback := make([]float64, len(params))
	var signs []int8 // the feedback's, taken whenever it changes
	res := &AsyncResult{SkipCounts: agg.SkipCounts, FinalParams: params}
	staleSum := 0
	for t := 1; t <= cfg.Updates; t++ {
		c := slices.MinFunc(next, earlier)
		k, staleness := c.client, version-c.version
		b := Broadcast{Round: t, LR: cfg.LR.At(t), Params: pulled[k], Feedback: feedback}
		if !core.AllZero(feedback) {
			b.Signs = signs
		}
		err := step.Train(&sc, net, cfg.ClientData[k], rngs[k], &b, &r)
		if err == nil {
			_, err = step.Pack(&sc, &r)
		}
		if err != nil {
			return nil, fmt.Errorf("fl: async client %d: %w", k, err)
		}
		replies[k] = r
		sum.Reset(len(params))
		if r.Upload {
			sum.AddScaled(mixAlpha/math.Sqrt(1+float64(staleness)), r.Delta)
		}
		done, err := agg.Finish(t, 1, []int{k}, replies, sum, func(st *RoundStats, update []float64) {
			if update != nil { // the applied update enters the feedback average
				for j, u := range update {
					feedback[j] = feedbackDecay*feedback[j] + (1-feedbackDecay)*u
				}
				signs = core.SignsInto(signs[:0], feedback)
				version++
				staleSum += staleness
				res.MeanStaleness = float64(staleSum) / float64(version)
			}
			res.Events = append(res.Events, AsyncEvent{RoundStats: *st, Time: c.at, Client: k, Staleness: staleness})
		})
		if err != nil {
			return res, fmt.Errorf("fl: async client %d, completion %d: %w", k, t, err)
		}
		// The client pulls the latest model and goes again.
		copy(pulled[k], params)
		schedule(k, c.at)
		if done {
			break
		}
	}
	return res, nil
}

func validateAsync(cfg *AsyncConfig) error {
	switch {
	case cfg.Model == nil:
		return errors.New("fl: async Model is required")
	case len(cfg.ClientData) == 0:
		return errors.New("fl: async needs at least one client")
	case cfg.Epochs <= 0:
		return errors.New("fl: async Epochs must be positive")
	case cfg.Batch <= 0:
		return errors.New("fl: async Batch must be positive")
	case cfg.LR == nil:
		return errors.New("fl: async LR schedule is required")
	case cfg.Updates <= 0:
		return errors.New("fl: async Updates must be positive")
	}
	for i, s := range cfg.ClientData {
		if s == nil || s.Len() == 0 {
			return fmt.Errorf("fl: async client %d has no data", i)
		}
	}
	if cfg.StragglerFactor < 1 {
		cfg.StragglerFactor = 4
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = len(cfg.ClientData)
	}
	if cfg.EvalBatch <= 0 {
		cfg.EvalBatch = 64
	}
	return nil
}
