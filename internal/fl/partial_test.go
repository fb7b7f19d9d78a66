package fl

import (
	"math"
	"strings"
	"testing"

	"cmfl/internal/core"
)

func partialConfig(t *testing.T) PartialConfig {
	return PartialConfig{
		Config:    digitLogisticConfig(t, 8, true),
		Threshold: core.Constant(0.5),
	}
}

func TestPartialUploadLearnsAndFilters(t *testing.T) {
	cfg := partialConfig(t)
	cfg.Rounds = 25
	res, err := RunPartial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.6 {
		t.Fatalf("partial-upload accuracy = %v, want >= 0.6", acc)
	}
	if res.SegmentUploadFraction >= 1 {
		t.Fatal("partial gate never filtered a segment")
	}
	if res.SegmentUploadFraction <= 0 {
		t.Fatal("partial gate filtered everything")
	}
}

func TestPartialFirstRoundUploadsAll(t *testing.T) {
	cfg := partialConfig(t)
	cfg.Rounds = 1
	res, err := RunPartial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.History[0]
	if h.SegmentsUploaded != h.SegmentsTotal {
		t.Fatalf("round 1 uploaded %d of %d segments; bootstrap must upload all",
			h.SegmentsUploaded, h.SegmentsTotal)
	}
}

func TestPartialBytesBelowFullUploads(t *testing.T) {
	cfg := partialConfig(t)
	cfg.Rounds = 15
	res, err := RunPartial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(res.FinalParams)
	// Full uploads would cost clients × rounds × dim × 8 bytes.
	full := int64(len(cfg.ClientData)) * int64(len(res.History)) * int64(dim) * 8
	last := res.History[len(res.History)-1]
	if last.CumUplinkBytes >= full {
		t.Fatalf("partial bytes %d should be below full-upload bytes %d", last.CumUplinkBytes, full)
	}
}

func TestPartialSegmentsMatchHighThreshold(t *testing.T) {
	// With an impossible threshold nothing uploads after round 1 and the
	// model freezes.
	cfg := partialConfig(t)
	cfg.Rounds = 4
	cfg.Threshold = core.Constant(1.1)
	cfg.MinSegment = 1 // gate everything, including bias segments
	res, err := RunPartial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History[1:] {
		if h.SegmentsUploaded != 0 {
			t.Fatalf("round %d uploaded %d segments despite threshold > 1", h.Round, h.SegmentsUploaded)
		}
	}
	if math.IsNaN(res.FinalAccuracy()) {
		t.Fatal("accuracy missing")
	}
}

func TestPartialValidation(t *testing.T) {
	cfg := partialConfig(t)
	cfg.Threshold = nil
	if _, err := RunPartial(cfg); err == nil {
		t.Fatal("expected error for nil threshold")
	}
	cfg = partialConfig(t)
	cfg.Rounds = 0
	if _, err := RunPartial(cfg); err == nil {
		t.Fatal("expected validation error from embedded config")
	}
	cfg = partialConfig(t)
	cfg.DropoutRate = 1.0
	if _, err := RunPartial(cfg); err == nil {
		t.Fatal("expected error for DropoutRate 1.0 (nobody would ever train)")
	}
	cfg = partialConfig(t)
	cfg.DropoutRate = -0.1
	if _, err := RunPartial(cfg); err == nil {
		t.Fatal("expected error for negative DropoutRate")
	}
	// Options of the embedded Config that RunPartial does not implement are
	// refused by name, never silently dropped.
	for field, set := range map[string]func(*Config){
		"ProxMu":              func(c *Config) { c.ProxMu = 0.1 },
		"DPClip":              func(c *Config) { c.DPClip = 1 },
		"DPNoiseSigma":        func(c *Config) { c.DPNoiseSigma = 0.01 },
		"ServerMomentum":      func(c *Config) { c.ServerMomentum = 0.9 },
		"FeedbackStaleness":   func(c *Config) { c.FeedbackStaleness = 2 },
		"WeightedAggregation": func(c *Config) { c.WeightedAggregation = true },
		"ErrorFeedback":       func(c *Config) { c.ErrorFeedback = true },
		"ClientFraction":      func(c *Config) { c.ClientFraction = 0.5 },
	} {
		cfg = partialConfig(t)
		set(&cfg.Config)
		if _, err := RunPartial(cfg); err == nil || !strings.Contains(err.Error(), "Config."+field) {
			t.Fatalf("%s set: err = %v, want one naming the field", field, err)
		}
	}
	cfg = partialConfig(t)
	cfg.Rounds, cfg.FeedbackStaleness, cfg.ClientFraction = 1, 1, 1 // the explicit defaults are fine
	if _, err := RunPartial(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPartialDropoutDeterministic pins the dropout stream contract: the
// participation pattern is a pure function of the seed (one draw per client
// per round, in client order, from the dedicated "partial-dropout" stream),
// so two runs of the same config produce bit-identical models and identical
// round accounting.
func TestPartialDropoutDeterministic(t *testing.T) {
	run := func() *PartialResult {
		cfg := partialConfig(t)
		cfg.Rounds = 8
		cfg.DropoutRate = 0.3
		res, err := RunPartial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.FinalParams) != len(b.FinalParams) {
		t.Fatalf("param dims differ: %d vs %d", len(a.FinalParams), len(b.FinalParams))
	}
	for j := range a.FinalParams {
		if math.Float64bits(a.FinalParams[j]) != math.Float64bits(b.FinalParams[j]) {
			t.Fatalf("param %d differs between runs: %v vs %v", j, a.FinalParams[j], b.FinalParams[j])
		}
	}
	clients := len(partialConfig(t).ClientData)
	sawDropout := false
	for i, h := range a.History {
		if h.Participants+h.Dropped != clients {
			t.Fatalf("round %d: participants %d + dropped %d != %d clients",
				h.Round, h.Participants, h.Dropped, clients)
		}
		if h.Dropped > 0 {
			sawDropout = true
		}
		if bh := b.History[i]; h.Dropped != bh.Dropped || h.Participants != bh.Participants {
			t.Fatalf("round %d participation differs between runs: %d/%d vs %d/%d",
				h.Round, h.Participants, h.Dropped, bh.Participants, bh.Dropped)
		}
	}
	if !sawDropout {
		t.Fatal("rate 0.3 over 8 rounds × 8 clients never dropped anyone — dropout inert")
	}
}

func TestPartialMinSegmentBypassesSmallTensors(t *testing.T) {
	cfg := partialConfig(t)
	cfg.Rounds = 3
	cfg.Threshold = core.Constant(1.1) // gate blocks every gated segment
	// Default MinSegment (32) exempts the 10-element bias: exactly one
	// segment per client per round still uploads after bootstrap.
	res, err := RunPartial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := len(cfg.ClientData)
	for _, h := range res.History[1:] {
		if h.SegmentsUploaded != clients {
			t.Fatalf("round %d uploaded %d segments, want %d (bias bypass only)",
				h.Round, h.SegmentsUploaded, clients)
		}
	}
}

// TestPartialParity pins what RunPartial shares with Run: with a threshold
// no segment can fail and no dropout, the per-segment mean degenerates to
// the plain mean, so the two engines must agree bit for bit.
func TestPartialParity(t *testing.T) {
	pcfg := partialConfig(t)
	pcfg.Rounds = 6
	pcfg.Threshold = core.Constant(-1)
	cfg := pcfg.Config
	cfg.Filter = Vanilla{}

	pres, err := RunPartial(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.FinalParams) != len(res.FinalParams) {
		t.Fatalf("param dims differ: partial %d, sync %d", len(pres.FinalParams), len(res.FinalParams))
	}
	for j := range res.FinalParams {
		if math.Float64bits(pres.FinalParams[j]) != math.Float64bits(res.FinalParams[j]) {
			t.Fatalf("param %d: partial %v != sync %v", j, pres.FinalParams[j], res.FinalParams[j])
		}
	}
	if len(pres.History) != len(res.History) {
		t.Fatalf("rounds differ: partial %d, sync %d", len(pres.History), len(res.History))
	}
	for r := range res.History {
		if math.Float64bits(pres.History[r].Accuracy) != math.Float64bits(res.History[r].Accuracy) {
			t.Fatalf("round %d accuracy: partial %v != sync %v", r+1, pres.History[r].Accuracy, res.History[r].Accuracy)
		}
	}
}
