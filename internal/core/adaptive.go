package core

import (
	"math"
	"sync/atomic"
)

// AdaptiveFilter is a CMFL extension: instead of a hand-tuned threshold
// schedule, it controls the relevance threshold to track a target upload
// fraction, removing the paper's per-workload threshold sweep. After every
// round the server reports how many clients uploaded; the filter nudges the
// threshold up when too many uploaded and down when too few
// (an integral controller with gain Gain, clamped to [Min, Max]).
//
// It is safe for concurrent Check calls, which read the threshold without a
// lock; ObserveRound must be called from the engine between rounds (the fl
// engine does this automatically for any filter implementing its
// FilterFeedback interface).
type AdaptiveFilter struct {
	// Target is the desired upload fraction in (0, 1).
	Target float64
	// Gain is the per-round adjustment step (default 0.05).
	Gain float64
	// Min and Max clamp the threshold (defaults 0.05 and 0.95).
	Min, Max float64

	threshold atomic.Uint64 // float64 bits; written only by ObserveRound
}

// NewAdaptiveFilter creates an adaptive CMFL filter starting at threshold
// start and tracking the target upload fraction.
func NewAdaptiveFilter(start, target float64) *AdaptiveFilter {
	f := &AdaptiveFilter{Target: target, Gain: 0.05, Min: 0.05, Max: 0.95}
	f.threshold.Store(math.Float64bits(start))
	return f
}

// Name implements the fl.UploadFilter interface.
func (f *AdaptiveFilter) Name() string { return "cmfl-adaptive" }

// Threshold returns the current threshold (for tracing).
func (f *AdaptiveFilter) Threshold() float64 {
	return math.Float64frombits(f.threshold.Load())
}

// Check implements the fl.UploadFilter interface.
func (f *AdaptiveFilter) Check(local, model, prevGlobal []float64, t int) (Decision, error) {
	if AllZero(prevGlobal) {
		return Decision{Upload: true, Metric: 1}, nil
	}
	rel, err := Relevance(local, prevGlobal)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Upload: rel >= f.Threshold(), Metric: rel}, nil
}

// ObserveRound implements the fl engine's FilterFeedback hook: it adjusts
// the threshold toward the target upload fraction.
func (f *AdaptiveFilter) ObserveRound(round, uploaded, participants int) {
	if participants == 0 {
		return
	}
	frac := float64(uploaded) / float64(participants)
	for {
		old := f.threshold.Load()
		thr := math.Float64frombits(old) + f.Gain*(frac-f.Target)
		if thr < f.Min {
			thr = f.Min
		}
		if thr > f.Max {
			thr = f.Max
		}
		if f.threshold.CompareAndSwap(old, math.Float64bits(thr)) {
			return
		}
	}
}
