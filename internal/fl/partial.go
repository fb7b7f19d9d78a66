package fl

import (
	"errors"
	"fmt"
	"math"

	"cmfl/internal/core"
	"cmfl/internal/emu/shard"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// PartialConfig extends the synchronous engine with *layerwise* CMFL: the
// relevance check (Eq. 9) runs per parameter segment (one segment per
// parameter tensor, from Network.ParamSegments), and a client uploads only
// the segments that align with the global trend. This is a finer-grained
// variant of the paper's all-or-nothing gate — a single tangential layer no
// longer forces a client to withhold its relevant layers.
type PartialConfig struct {
	// Config supplies the workload; its Filter and Compressor are ignored
	// (the partial gate replaces them). The options RunPartial does not
	// implement — ProxMu, DPClip, DPNoiseSigma, ServerMomentum,
	// FeedbackStaleness above 1, WeightedAggregation, ErrorFeedback and a
	// fractional ClientFraction — are an error, not silently dropped.
	Config
	// Threshold is the per-segment relevance threshold schedule.
	Threshold core.Schedule
	// MinSegment exempts segments with fewer parameters from gating (they
	// are always uploaded): the sign-agreement percentage of an 8-element
	// bias vector is too quantised to be a meaningful relevance signal,
	// and such segments are negligible in bytes anyway. Default 32.
	MinSegment int
	// DropoutRate is the per-round probability that a client sits the round
	// out entirely — no training, no upload, not even a skip notification —
	// simulating the unreliable mobile population the paper targets (§I).
	// Draws come from a dedicated stream derived from (Seed,
	// "partial-dropout"), one per client per round in client order, so a
	// given seed always drops the same clients. 0 disables; must be < 1.
	DropoutRate float64
}

// segmentUploadBytes is the framing cost of announcing one uploaded
// segment (segment index + length), on top of its float64 payload.
const segmentUploadBytes = 8

// PartialRoundStats extends the shared round record with segment-level
// counts. In the embedded telemetry.RoundEvent, a client counts as
// "uploaded" when it transferred at least one segment this round.
type PartialRoundStats struct {
	telemetry.RoundEvent

	// SegmentsUploaded / SegmentsTotal count segment uploads across all
	// clients this round.
	SegmentsUploaded int
	SegmentsTotal    int
}

// PartialResult is the outcome of RunPartial.
type PartialResult struct {
	History     []PartialRoundStats
	FinalParams []float64
	// SegmentUploadFraction is the overall fraction of segments uploaded.
	SegmentUploadFraction float64
}

// FinalAccuracy returns the last evaluated accuracy, or NaN.
func (r *PartialResult) FinalAccuracy() float64 {
	for i := len(r.History) - 1; i >= 0; i-- {
		if !math.IsNaN(r.History[i].Accuracy) {
			return r.History[i].Accuracy
		}
	}
	return math.NaN()
}

// RunPartial executes synchronous training with layerwise relevance gating.
// Participation is its own (seeded dropout), and so are the per-segment gate
// and per-segment mean; the local solve is ClientStep's, and applying the
// aggregate, the feedback rule, the counters and the emission are
// Aggregator's.
//
//cmfl:deterministic
func RunPartial(cfg PartialConfig) (*PartialResult, error) {
	if err := validate(&cfg.Config); err != nil {
		return nil, err
	}
	if cfg.Threshold == nil {
		return nil, errors.New("fl: partial Threshold schedule is required")
	}
	if cfg.MinSegment <= 0 {
		cfg.MinSegment = 32
	}
	if cfg.DropoutRate < 0 || cfg.DropoutRate >= 1 {
		return nil, fmt.Errorf("fl: DropoutRate %v outside [0, 1)", cfg.DropoutRate)
	}
	for _, unsupported := range []struct {
		field string
		set   bool
	}{
		{"ProxMu", cfg.ProxMu > 0},
		{"DPClip", cfg.DPClip > 0},
		{"DPNoiseSigma", cfg.DPNoiseSigma > 0},
		{"ServerMomentum", cfg.ServerMomentum > 0},
		{"FeedbackStaleness", cfg.FeedbackStaleness > 1},
		{"WeightedAggregation", cfg.WeightedAggregation},
		{"ErrorFeedback", cfg.ErrorFeedback},
		{"ClientFraction", cfg.ClientFraction > 0 && cfg.ClientFraction < 1},
	} {
		if unsupported.set {
			return nil, fmt.Errorf("fl: RunPartial does not support Config.%s", unsupported.field)
		}
	}

	global := cfg.Model()
	// The whole-update gate is replaced by the per-segment one below, so the
	// step runs with the always-upload filter and no codec.
	step := ClientStep{Epochs: cfg.Epochs, Batch: cfg.Batch, Filter: Vanilla{}}
	agg := NewAggregator(telemetry.EnginePartial, global.ParamVector(), len(cfg.ClientData), step.Filter, cfg.Observers)
	dim := len(agg.Params)
	segLens := global.ParamSegments()
	segOff := make([]int, len(segLens)+1)
	for i, l := range segLens {
		segOff[i+1] = segOff[i] + l
	}
	if segOff[len(segLens)] != dim {
		return nil, fmt.Errorf("fl: segments cover %d of %d params", segOff[len(segLens)], dim)
	}

	clients := newClients(&cfg.Config)
	res := &PartialResult{}
	totalSegs, uploadedSegs := 0, 0

	replies := make([]Reply, len(clients))
	segUpload := make([][]bool, len(clients)) // this round's per-segment verdicts
	for i := range segUpload {
		segUpload[i] = make([]bool, len(segLens))
	}
	active := make([]int, 0, len(clients))
	acc := shard.New(0) // one segment's exact sum at a time
	var dropRng *xrand.Stream
	if cfg.DropoutRate > 0 {
		dropRng = xrand.Derive(cfg.Seed, "partial-dropout", 0)
	}

	for t := 1; t <= cfg.Rounds; t++ {
		b := agg.Begin(t, cfg.LR.At(t))
		thr := cfg.Threshold.At(t)
		// Dropout draws happen up front in client order: one Float64 per
		// client per round, so the participation pattern is a pure function
		// of the seed regardless of goroutine scheduling.
		active = active[:0]
		for i := range clients {
			if dropRng == nil || dropRng.Float64() >= cfg.DropoutRate {
				active = append(active, i)
			}
		}
		if i, err := trainAll(active, cfg.Parallelism, func(i int) error {
			c, r := clients[i], &replies[i]
			if err := step.Train(&c.scratch, c.net, c.data, c.rng, &b, r); err != nil {
				return err
			}
			r.Relevance = math.NaN()
			return gateSegments(segUpload[i], r.Delta, &b, segOff, thr, cfg.MinSegment)
		}); err != nil {
			return nil, fmt.Errorf("fl: partial round %d client %d: %w", t, i, err)
		}

		// Per-segment averaging over the active clients that uploaded the
		// segment, through the exact sum Fold takes over whole updates;
		// dropped clients contribute nothing this round.
		globalUpdate := make([]float64, dim)
		segUp := 0
		for _, i := range active {
			replies[i].Bytes = 0
		}
		for s := 0; s < len(segLens); s++ {
			lo, hi := segOff[s], segOff[s+1]
			count := 0
			acc.Reset(hi - lo)
			for _, i := range active {
				if !segUpload[i][s] {
					continue
				}
				segUp++
				count++
				acc.Add(replies[i].Delta[lo:hi])
				replies[i].Bytes += int64(hi-lo)*8 + segmentUploadBytes
			}
			if count > 0 {
				acc.Round(globalUpdate[lo:hi:hi])
				tensor.ScaleVec(1/float64(count), globalUpdate[lo:hi])
			}
		}
		// A client counts as uploaded when it transferred at least one
		// segment. Active clients that uploaded nothing still send a skip
		// notification; dropped clients send nothing at all.
		clientsUploaded := 0
		var roundBytes int64
		for _, i := range active {
			r := &replies[i]
			r.Upload = r.Bytes > 0
			if r.Upload {
				clientsUploaded++
			} else {
				r.Bytes = SkipNotificationBytes
			}
			roundBytes += r.Bytes
		}
		segTot := len(active) * len(segLens)
		uploadedSegs += segUp
		totalSegs += segTot

		st := PartialRoundStats{
			RoundEvent:       agg.commit(t, len(active), len(active), clientsUploaded, roundBytes, globalUpdate),
			SegmentsUploaded: segUp,
			SegmentsTotal:    segTot,
		}
		// Clients that sat the round out are not participants here.
		st.Dropped = len(clients) - len(active)
		done, err := cfg.evalRound(global, agg.Params, &st.RoundEvent)
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, st)
		agg.Emit(st.RoundEvent, active, replies)
		if done {
			break
		}
	}
	res.FinalParams = agg.Params
	if totalSegs > 0 {
		res.SegmentUploadFraction = float64(uploadedSegs) / float64(totalSegs)
	}
	return res, nil
}

// gateSegments decides each parameter segment of one client's update
// independently. Zero feedback (the first round) uploads everything, and so
// do segments shorter than minSegment.
func gateSegments(upload []bool, delta []float64, b *Broadcast, segOff []int, thr float64, minSegment int) error {
	bootstrap := len(b.Signs) == 0
	for s := range upload {
		lo, hi := segOff[s], segOff[s+1]
		if bootstrap || hi-lo < minSegment {
			upload[s] = true
			continue
		}
		rel, err := core.Relevance(delta[lo:hi], b.Feedback[lo:hi])
		if err != nil {
			return err
		}
		upload[s] = rel >= thr
	}
	return nil
}
