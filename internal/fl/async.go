package fl

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
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

	// MixAlpha is the base server mixing rate: an update with staleness s
	// is applied as x ← x + MixAlpha/√(1+s) · u. Default 0.6.
	MixAlpha float64
	// FeedbackDecay is the EMA coefficient for the feedback update
	// (default 0.5): f ← FeedbackDecay·f + (1−FeedbackDecay)·applied.
	FeedbackDecay float64

	// MeanDuration is the average simulated local-training duration; each
	// client draws a personal speed factor in [0.5, StragglerFactor] so
	// slow clients produce stale updates. Default straggler factor 4.
	MeanDuration    float64
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

	// Observers receive live telemetry. The asynchronous engine treats
	// each client completion as a one-participant round: it emits one
	// telemetry.ClientEvent followed by one telemetry.RoundEvent per
	// completion, with Round set to the 1-based completion index.
	Observers []telemetry.Observer
}

// AsyncEvent records one client completion in the simulated timeline.
type AsyncEvent struct {
	// Time is the virtual completion time.
	Time float64
	// Client is the finishing client.
	Client int
	// Staleness counts how many global model versions were applied between
	// this client's pull and its completion.
	Staleness int
	// Uploaded reports whether the update passed the filter.
	Uploaded bool
	// Relevance is the CMFL metric at the check (NaN before feedback).
	Relevance float64
	// Accuracy is the global accuracy if evaluated at this event (else NaN).
	Accuracy float64
	// CumUploads / CumUplinkBytes mirror the synchronous accounting.
	CumUploads     int
	CumUplinkBytes int64
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
func (r *AsyncResult) FinalAccuracy() float64 {
	for i := len(r.Events) - 1; i >= 0; i-- {
		if !math.IsNaN(r.Events[i].Accuracy) {
			return r.Events[i].Accuracy
		}
	}
	return math.NaN()
}

// completion is a pending client-finish event in the simulation queue.
type completion struct {
	at      float64
	client  int
	version int // global version the client pulled
	seq     int // tie-breaker for determinism
}

type completionQueue []completion

func (q completionQueue) Len() int { return len(q) }
func (q completionQueue) Less(i, j int) bool {
	//cmfl:lint-ignore floateq bit-exact compare keeps the completion heap strictly ordered and deterministic
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q completionQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *completionQueue) Push(x interface{}) { *q = append(*q, x.(completion)) }
func (q *completionQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// RunAsync executes the asynchronous simulation. Each completion runs
// Algorithm 1's client half, ClientStep's Train and Pack, against a
// Broadcast of the model the client pulled and the feedback average.
//
//cmfl:deterministic
func RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
	if err := validateAsync(&cfg); err != nil {
		return nil, err
	}
	global := cfg.Model()
	params := global.ParamVector()
	version := 0
	// Every completion trains on one network, scratch and reply: the solver
	// reloads the network from the client's pulled snapshot.
	step := ClientStep{Epochs: cfg.Epochs, Batch: cfg.Batch, Filter: cfg.Filter}
	if step.Filter == nil {
		step.Filter = Vanilla{}
	}
	net := cfg.Model()
	var sc Scratch
	var r Reply

	d := len(cfg.ClientData)
	rngs := make([]*xrand.Stream, d)
	speeds := make([]float64, d)
	pulled := make([][]float64, d) // model snapshot each client trains from
	pulledVersion := make([]int, d)
	durRng := xrand.Derive(cfg.Seed, "fl-async-durations", 0)
	for k := 0; k < d; k++ {
		rngs[k] = ClientStream(cfg.Seed, k)
		speeds[k] = 0.5 + (cfg.StragglerFactor-0.5)*durRng.Float64()
		pulled[k] = append([]float64(nil), params...)
	}

	q := &completionQueue{}
	seq := 0
	schedule := func(k int, now float64) {
		// Exponential-ish duration: speed factor × mean × U[0.5, 1.5).
		dur := speeds[k] * cfg.MeanDuration * (0.5 + durRng.Float64())
		seq++
		heap.Push(q, completion{at: now + dur, client: k, version: pulledVersion[k], seq: seq})
	}
	for k := 0; k < d; k++ {
		schedule(k, 0)
	}

	feedback := make([]float64, len(params))
	var signs []int8 // the feedback's, taken whenever it changes
	res := &AsyncResult{SkipCounts: make([]int, d)}
	cumUploads := 0
	var cumBytes int64
	var staleSum float64
	events := 0

	for events < cfg.Updates && q.Len() > 0 {
		c := heap.Pop(q).(completion)
		events++
		k := c.client
		// One "round" of local training from the snapshot the client pulled.
		b := Broadcast{Round: events, LR: cfg.LR.At(events), Params: pulled[k], Feedback: feedback}
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
		staleness := version - c.version
		cumBytes += r.Bytes
		if r.Upload {
			// The applied update scale·v moves the model and enters the
			// feedback average in the same sweep.
			scale := cfg.MixAlpha / math.Sqrt(1+float64(staleness))
			for j, v := range r.Delta {
				applied := scale * v
				params[j] += applied
				feedback[j] = cfg.FeedbackDecay*feedback[j] + (1-cfg.FeedbackDecay)*applied
			}
			signs = core.SignsInto(signs[:0], feedback)
			version++
			//cmfl:order-pinned completion events pop in deterministic virtual-time order; the event schedule is the algorithm
			staleSum += float64(staleness)
			cumUploads++
		} else {
			res.SkipCounts[k]++
		}
		ev := AsyncEvent{
			Time:           c.at,
			Client:         k,
			Staleness:      staleness,
			Uploaded:       r.Upload,
			Relevance:      r.Relevance,
			Accuracy:       math.NaN(),
			CumUploads:     cumUploads,
			CumUplinkBytes: cumBytes,
		}

		// The client pulls the latest model and goes again.
		copy(pulled[k], params)
		pulledVersion[k] = version
		schedule(k, c.at)

		if events%cfg.EvalEvery == 0 || events == cfg.Updates {
			if err := global.SetParamVector(params); err != nil {
				return nil, err
			}
			ev.Accuracy = Evaluate(global, cfg.TestData, cfg.EvalBatch)
		}
		res.Events = append(res.Events, ev)
		if len(cfg.Observers) > 0 {
			uploadedN := 0
			if r.Upload {
				uploadedN = 1
			}
			telemetry.EmitClient(cfg.Observers, telemetry.ClientEvent{
				Engine:      telemetry.EngineAsync,
				Round:       events,
				Client:      k,
				Uploaded:    r.Upload,
				Relevance:   r.Relevance,
				UplinkBytes: r.Bytes,
			})
			telemetry.EmitRound(cfg.Observers, telemetry.RoundEvent{
				Engine:         telemetry.EngineAsync,
				Round:          events,
				Participants:   1,
				Uploaded:       uploadedN,
				Skipped:        1 - uploadedN,
				CumUploads:     cumUploads,
				CumUplinkBytes: cumBytes,
				Accuracy:       ev.Accuracy,
			})
		}
		if cfg.TargetAccuracy > 0 && !math.IsNaN(ev.Accuracy) && ev.Accuracy >= cfg.TargetAccuracy {
			break
		}
	}
	res.FinalParams = params
	if cumUploads > 0 {
		res.MeanStaleness = staleSum / float64(cumUploads)
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
	if cfg.MixAlpha <= 0 {
		cfg.MixAlpha = 0.6
	}
	if cfg.FeedbackDecay <= 0 || cfg.FeedbackDecay >= 1 {
		cfg.FeedbackDecay = 0.5
	}
	if cfg.MeanDuration <= 0 {
		cfg.MeanDuration = 1
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
