package fl

import (
	"cmfl/internal/core"
	"cmfl/internal/emu/shard"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
)

// Aggregator is the server half of Algorithm 1, written once for the
// synchronous loop (Run, and sim through RunSchedule) and the emu server: the
// per-round feedback prelude, the exact FedAvg fold of the accepted replies,
// the apply step with its feedback rule, the cumulative communication
// counters and the telemetry emission. What the loop's Schedule or the emu
// server decides is who participates and whose reply is accepted; emu also
// accumulates the sum itself and hands Close a finished one.
type Aggregator struct {
	// Params is the global parameter vector, updated in place every round.
	Params []float64
	// SkipCounts is the number of withheld updates Close saw per client.
	SkipCounts []int

	engine    string
	filter    UploadFilter
	observers []telemetry.Observer
	momentum  float64 // Config.ServerMomentum
	staleness int     // Config.FeedbackStaleness, at least 1

	feedback   []float64   // latest non-empty aggregate; zeros before the first
	history    [][]float64 // the last staleness+1 of them, kept when staleness > 1
	signs      []int8      // sign buffer, rebuilt by Begin
	velocity   []float64   // momentum state, allocated on first use
	cumUploads int
	cumBytes   int64
}

// NewAggregator starts a run at params for the given number of clients.
// engine labels the emitted events; filter is told every round's upload
// count when it implements FilterFeedback.
func NewAggregator(engine string, params []float64, clients int, filter UploadFilter, observers []telemetry.Observer) *Aggregator {
	return &Aggregator{
		Params:     params,
		SkipCounts: make([]int, clients),
		engine:     engine,
		filter:     filter,
		observers:  observers,
		staleness:  1,
		feedback:   make([]float64, len(params)),
	}
}

// Begin opens round t: it picks the feedback the clients compare against and
// computes its sign vector once, for every client to read concurrently.
func (a *Aggregator) Begin(t int, lr float64) Broadcast {
	feedback := a.feedback
	if a.staleness > 1 && len(a.history) >= a.staleness {
		feedback = a.history[len(a.history)-a.staleness]
	}
	b := Broadcast{Round: t, LR: lr, Params: a.Params, Feedback: feedback}
	if !core.AllZero(feedback) {
		a.signs = core.SignsInto(a.signs[:0], feedback)
		b.Signs = a.signs
	}
	return b
}

// Fold closes round t over the replies the engine accepted: replies[i] for
// every i in accepted. sum holds the exact sum of their uploads (Algorithm 1
// line 8). The loop's workers add the uploads as they pack them, and the
// driver merges their partial sums into one before Fold rounds it once per
// coordinate: no order or grouping of the uploads leaves a trace in the
// result. Close does the rest.
//
//cmfl:deterministic
func (a *Aggregator) Fold(t, participants int, accepted []int, replies []Reply, sum *shard.Accumulator) (telemetry.RoundEvent, []float64) {
	uploaded := 0
	for _, i := range accepted {
		if replies[i].Upload {
			uploaded++
		}
	}
	if uploaded == 0 {
		return a.Close(t, participants, accepted, replies, nil, 0)
	}
	return a.Close(t, participants, accepted, replies, sum.Round(make([]float64, len(a.Params))), float64(uploaded))
}

// Close finishes round t from sum, the exact sum of the accepted uploads
// rounded once, wherever it was accumulated (Fold here, the shard tree in
// emu): the mean sum/divisor, server momentum, the apply step, and the
// bookkeeping over replies[i] for i in accepted. participants counts
// everyone who was sent the broadcast, so participants − len(accepted) were
// dropped. It takes ownership of sum, which becomes the applied global
// update it returns — nil when nobody uploaded — and the next feedback. A
// fully skipped round moves nothing and keeps the feedback, so it does not
// zero out the global-direction estimate. The event comes back with
// Accuracy left NaN.
func (a *Aggregator) Close(t, participants int, accepted []int, replies []Reply, sum []float64, divisor float64) (telemetry.RoundEvent, []float64) {
	uploaded := 0
	var bytes int64
	for _, i := range accepted {
		bytes += replies[i].Bytes
		if replies[i].Upload {
			uploaded++
		} else {
			a.SkipCounts[i]++
		}
	}
	if uploaded == 0 {
		sum = nil
	} else {
		tensor.ScaleVec(1/divisor, sum)
		if a.momentum > 0 {
			if a.velocity == nil {
				a.velocity = make([]float64, len(sum))
			}
			for j := range a.velocity {
				a.velocity[j] = a.momentum*a.velocity[j] + sum[j]
			}
			// The applied update (and the feedback clients see) is the
			// momentum-smoothed velocity.
			copy(sum, a.velocity)
		}
		//cmfl:order-pinned rounds apply to the model strictly sequentially; t-order is the algorithm
		tensor.Axpy(1, sum, a.Params)
		a.feedback = sum
		if a.staleness > 1 { // Begin reads the window only then
			a.history = append(a.history, sum)
			if len(a.history) > a.staleness+1 {
				a.history = a.history[1:]
			}
		}
	}
	a.cumUploads += uploaded
	a.cumBytes += bytes
	if obs, ok := a.filter.(FilterFeedback); ok {
		obs.ObserveRound(t, uploaded, participants)
	}
	return telemetry.RoundEvent{
		Engine:         a.engine,
		Round:          t,
		Participants:   participants,
		Uploaded:       uploaded,
		Skipped:        len(accepted) - uploaded,
		CumUploads:     a.cumUploads,
		CumUplinkBytes: a.cumBytes,
		Dropped:        participants - len(accepted),
		Accuracy:       nan(),
	}, sum
}

// Emit publishes the round: one ClientEvent per accepted reply, in accepted
// order (ascending client id from every engine), then the RoundEvent.
func (a *Aggregator) Emit(ev telemetry.RoundEvent, accepted []int, replies []Reply) {
	if len(a.observers) == 0 {
		return
	}
	for _, i := range accepted {
		telemetry.EmitClient(a.observers, telemetry.ClientEvent{
			Engine:      a.engine,
			Round:       ev.Round,
			Client:      i,
			Uploaded:    replies[i].Upload,
			Relevance:   replies[i].Relevance,
			UplinkBytes: replies[i].Bytes,
		})
	}
	telemetry.EmitRound(a.observers, ev)
}
