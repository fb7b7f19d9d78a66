package fl

import (
	"fmt"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
)

// Aggregator is the server half of Algorithm 1, written once for every
// engine (the loop behind Run and sim, the emu server, RunAsync and mtl.Run):
// the per-round feedback prelude, the exact FedAvg fold of the accepted
// replies, the apply step with its feedback rule, the cumulative
// communication counters, and the round tail: diagnostics, evaluation and
// telemetry. What the engine decides is who participates and whose reply is
// accepted; each hands Finish the exact sum of the accepted uploads.
type Aggregator struct {
	// Params is the global parameter vector, updated in place every round.
	Params []float64
	// SkipCounts is the number of withheld updates Fold saw per client.
	SkipCounts []int
	// Eval is how Finish measures accuracy; the zero value never does.
	Eval Evaluation

	engine    string
	filter    UploadFilter
	observers []telemetry.Observer
	momentum  float64 // Config.ServerMomentum
	staleness int     // Config.FeedbackStaleness, at least 1

	// ring holds the applied global updates, the k-th in ring[k % len], so
	// the staleness+1 latest stay intact while the next is rounded. The last
	// buffer is first written after staleness+1 applied rounds: until the
	// first, it is the all-zero feedback.
	ring       [][]float64
	applied    int
	signs      []int8 // sign buffer, rebuilt by Begin
	cumUploads int
	cumBytes   int64
	st         RoundStats   // the record Finish hands keep
	loss, rel  shard.Scalar // and its sums, reset every round
}

// NewAggregator starts a run at params for the given number of clients.
// engine labels the emitted events; filter is told every round's upload
// count when it implements FilterFeedback.
func NewAggregator(engine string, params []float64, clients int, filter UploadFilter, observers []telemetry.Observer) *Aggregator {
	return newAggregator(engine, params, clients, filter, observers, 1)
}

// newAggregator is NewAggregator comparing against the feedback staleness
// rounds back.
func newAggregator(engine string, params []float64, clients int, filter UploadFilter, observers []telemetry.Observer, staleness int) *Aggregator {
	ring := make([][]float64, staleness+2)
	for i := range ring {
		ring[i] = make([]float64, len(params))
	}
	return &Aggregator{
		Params:     params,
		SkipCounts: make([]int, clients),
		engine:     engine,
		filter:     filter,
		observers:  observers,
		staleness:  staleness,
		ring:       ring,
	}
}

// update returns the global update applied back rounds ago (1 is the
// latest; the all-zero vector before the first), or with back = 0 the
// buffer the next applied round is rounded into.
func (a *Aggregator) update(back int) []float64 {
	return a.ring[(a.applied-back+len(a.ring))%len(a.ring)]
}

// Begin opens round t: it picks the feedback the clients compare against —
// the latest applied update, or the one FeedbackStaleness applied rounds
// back once there are that many — and computes its sign vector once, for
// every client to read concurrently.
func (a *Aggregator) Begin(t int, lr float64) Broadcast {
	back := 1
	if a.applied >= a.staleness {
		back = a.staleness
	}
	b := Broadcast{Round: t, LR: lr, Params: a.Params, Feedback: a.update(back)}
	if !core.AllZero(b.Feedback) {
		a.signs = core.SignsInto(a.signs[:0], b.Feedback)
		b.Signs = a.signs
	}
	return b
}

// Fold closes round t over the replies the engine accepted: replies[i] for
// every i in accepted, of participants sent the broadcast. sum is the exact
// sum of their uploads (Algorithm 1 line 8), however the engine gathered it;
// Fold rounds it once per coordinate, so no order or grouping of the uploads
// leaves a trace. Then come the mean, server momentum, the apply step and
// the bookkeeping. A rounded sum that is not finite fails the round before
// anything changes: no single update is at fault, and applying it would
// poison the model for good.
//
// It returns the applied update, the next feedback, in a buffer the caller
// must not modify and that stays valid for staleness+1 more applied rounds;
// nil when nobody uploaded. A fully skipped round moves nothing and keeps
// the feedback. The event's Accuracy is left NaN.
//
//cmfl:deterministic
func (a *Aggregator) Fold(t, participants int, accepted []int, replies []Reply, sum *shard.Accumulator) (telemetry.RoundEvent, []float64, error) {
	uploaded := 0
	for _, i := range accepted {
		if replies[i].Upload {
			uploaded++
		}
	}
	var update []float64
	if uploaded > 0 {
		update = sum.Round(a.update(0))
		if err := shard.CheckFinite(update); err != nil {
			return telemetry.RoundEvent{}, nil, fmt.Errorf("round %d: sum of %d accepted updates: %w", t, uploaded, err)
		}
	}
	var bytes int64
	for _, i := range accepted {
		bytes += replies[i].Bytes
		if !replies[i].Upload {
			a.SkipCounts[i]++
		}
	}
	a.cumUploads += uploaded
	a.cumBytes += bytes
	if obs, ok := a.filter.(FilterFeedback); ok {
		obs.ObserveRound(t, uploaded, participants)
	}
	ev := telemetry.RoundEvent{
		Engine:         a.engine,
		Round:          t,
		Participants:   participants,
		Uploaded:       uploaded,
		Skipped:        len(accepted) - uploaded,
		CumUploads:     a.cumUploads,
		CumUplinkBytes: a.cumBytes,
		Dropped:        participants - len(accepted),
		Accuracy:       nan(),
	}
	if uploaded == 0 {
		return ev, nil, nil
	}
	tensor.ScaleVec(1/float64(uploaded), update)
	if a.momentum > 0 {
		// The applied update (and the feedback clients see) is the
		// velocity v ← μv + ū, and v is the latest applied update.
		for j, v := range a.update(1) {
			update[j] = a.momentum*v + update[j]
		}
	}
	// Rounds apply to the model strictly sequentially; t-order is the algorithm.
	tensor.Axpy(1, update, a.Params)
	a.applied++
	return ev, update, nil
}

// Evaluation is when and how Finish measures the model: after every Every-th
// round and after round Last, Net loads the global parameters and Evaluate
// scores it on Test in Batch-sized passes; nothing is measured without Test.
// An accuracy of at least Target ends the run; 0 never does.
type Evaluation struct {
	Net                *nn.Network
	Test               *dataset.Set
	Every, Last, Batch int
	Target             float64
}

// Finish closes round t for every engine: Fold, the means of the
// accepted replies' loss and relevance (exact sums rounded once, so neither
// arrival order nor the workers show in them), the evaluation, then keep,
// which is given the applied update (nil if nobody uploaded) and stores a
// copy of the record, the next round's to reuse. What keep sets on it is
// published: a ClientEvent per accepted reply, in accepted order, then the
// RoundEvent. Finish reports whether the run reached its target accuracy.
// MeanSignificance and DeltaUpdate are NaN for keep to fill.
func (a *Aggregator) Finish(t, participants int, accepted []int, replies []Reply, sum *shard.Accumulator, keep func(st *RoundStats, update []float64)) (bool, error) {
	ev, update, err := a.Fold(t, participants, accepted, replies, sum)
	if err != nil {
		return false, err
	}
	a.loss.Reset()
	a.rel.Reset()
	rels := 0
	for _, i := range accepted {
		a.loss.Add(replies[i].Loss)
		if v := replies[i].Relevance; !isNaN(v) {
			a.rel.Add(v)
			rels++
		}
	}
	st := &a.st
	*st = RoundStats{RoundEvent: ev, TrainLoss: mean(&a.loss, len(accepted)), MeanRelevance: mean(&a.rel, rels), MeanSignificance: nan(), DeltaUpdate: nan()}
	if e := &a.Eval; e.Test != nil && e.Every > 0 && (t%e.Every == 0 || t == e.Last) {
		if err := e.Net.SetParamVector(a.Params); err != nil {
			return false, fmt.Errorf("round %d: evaluator: %w", t, err)
		}
		st.Accuracy = Evaluate(e.Net, e.Test, e.Batch)
	}
	keep(st, update)
	for _, i := range accepted {
		r := &replies[i]
		telemetry.EmitClient(a.observers, telemetry.ClientEvent{
			Engine: a.engine, Round: t, Client: i, Uploaded: r.Upload, Relevance: r.Relevance, UplinkBytes: r.Bytes,
		})
	}
	telemetry.EmitRound(a.observers, st.RoundEvent)
	return a.Eval.Target > 0 && st.Accuracy >= a.Eval.Target, nil // never while NaN
}
