package mtl

import (
	"math"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
)

// TestObserverOrdering mirrors the fl-engine ordering tests: per-task
// ClientEvents of a round arrive (in task order) before the round's
// RoundEvent, and the streams agree with the returned history.
func TestObserverOrdering(t *testing.T) {
	cfg, _ := harConfig(t, 8, 2)
	cfg.Rounds = 6
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	var seq []int // positive: RoundEvent round; negative: ClientEvent round
	var roundEvents []telemetry.RoundEvent
	clientCount := make(map[int]int)
	clientUploads := make(map[int]int)
	clientBytes := make(map[int]int64)
	cfg.Observers = []telemetry.Observer{telemetry.Funcs{
		Round: func(e telemetry.RoundEvent) {
			roundEvents = append(roundEvents, e)
			seq = append(seq, e.Round)
		},
		Client: func(e telemetry.ClientEvent) {
			seq = append(seq, -e.Round)
			clientCount[e.Round]++
			if e.Uploaded {
				clientUploads[e.Round]++
			}
			clientBytes[e.Round] += e.UplinkBytes
		},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastRound := 0
	for _, s := range seq {
		if s > 0 {
			if s != lastRound+1 {
				t.Fatalf("RoundEvent %d after round %d", s, lastRound)
			}
			lastRound = s
		} else if -s != lastRound+1 {
			t.Fatalf("ClientEvent for round %d arrived while round %d was current", -s, lastRound)
		}
	}
	if len(roundEvents) != len(res.History) {
		t.Fatalf("observed %d rounds, history has %d", len(roundEvents), len(res.History))
	}
	var cumBytes int64
	for i, e := range roundEvents {
		if e.Engine != telemetry.EngineMTL {
			t.Fatalf("engine = %q, want %q", e.Engine, telemetry.EngineMTL)
		}
		if e != res.History[i].RoundEvent {
			t.Fatalf("round %d: observed event %+v != history %+v", i+1, e, res.History[i].RoundEvent)
		}
		if clientCount[e.Round] != e.Participants {
			t.Fatalf("round %d: %d ClientEvents, %d participants", e.Round, clientCount[e.Round], e.Participants)
		}
		if clientUploads[e.Round] != e.Uploaded {
			t.Fatalf("round %d: client stream shows %d uploads, RoundEvent says %d",
				e.Round, clientUploads[e.Round], e.Uploaded)
		}
		cumBytes += clientBytes[e.Round]
		if e.CumUplinkBytes != cumBytes {
			t.Fatalf("round %d: CumUplinkBytes = %d, client stream sums to %d",
				e.Round, e.CumUplinkBytes, cumBytes)
		}
	}
}

// TestRelevanceIndependentOfGate: the reported relevance is Eq. 9 against
// the feedback whatever the gate decides with, and NaN in round 1, before
// any feedback exists. A gate that always uploads therefore reports
// exactly what no gate does, and CMFL's bootstrap round reports none.
func TestRelevanceIndependentOfGate(t *testing.T) {
	base, _ := harConfig(t, 6, 1)
	base.Rounds = 4
	m := len(base.Clients)
	run := func(f fl.UploadFilter) (*Result, []float64) {
		cfg := base
		cfg.Filter = f
		var rels []float64
		cfg.Observers = []telemetry.Observer{telemetry.Funcs{
			Client: func(e telemetry.ClientEvent) { rels = append(rels, e.Relevance) },
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, rels
	}

	plain, plainRels := run(nil)
	gated, gatedRels := run(fl.Vanilla{})
	for i := range plain.History {
		p, g := plain.History[i].MeanRelevance, gated.History[i].MeanRelevance
		if math.Float64bits(p) != math.Float64bits(g) {
			t.Errorf("round %d: mean relevance %v under an always-upload gate, %v without a gate", i+1, g, p)
		}
	}
	for i := range plainRels {
		if math.Float64bits(plainRels[i]) != math.Float64bits(gatedRels[i]) {
			t.Errorf("client event %d: relevance %v under an always-upload gate, %v without a gate", i, gatedRels[i], plainRels[i])
		}
	}
	if r := plain.History[1].MeanRelevance; math.IsNaN(r) || r < 0 || r > 1 {
		t.Errorf("round 2 mean relevance = %v, want a fraction of agreeing signs", r)
	}

	cmfl, cmflRels := run(core.NewFilter(core.Constant(0.5)))
	if r := cmfl.History[0].MeanRelevance; !math.IsNaN(r) {
		t.Errorf("CMFL round 1 mean relevance = %v, want NaN (no feedback yet)", r)
	}
	for k, r := range cmflRels[:m] {
		if !math.IsNaN(r) {
			t.Errorf("CMFL round 1 task %d relevance = %v, want NaN (no feedback yet)", k, r)
		}
	}
}
