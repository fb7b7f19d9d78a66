package fl

import (
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/telemetry"
)

// eventRecorder captures the interleaved observer stream so the tests can
// assert the ordering contract: all ClientEvents of a round arrive before
// that round's RoundEvent, rounds in order.
type eventRecorder struct {
	rounds  []telemetry.RoundEvent
	clients []telemetry.ClientEvent
	// seq logs "c" / "r" markers with round numbers in arrival order.
	seq []int // positive: RoundEvent round; negative: ClientEvent round
}

func (r *eventRecorder) observer() telemetry.Observer {
	return telemetry.Funcs{
		Round: func(e telemetry.RoundEvent) {
			r.rounds = append(r.rounds, e)
			r.seq = append(r.seq, e.Round)
		},
		Client: func(e telemetry.ClientEvent) {
			r.clients = append(r.clients, e)
			r.seq = append(r.seq, -e.Round)
		},
	}
}

// checkOrdering asserts rounds arrive 1..n in order and that every
// ClientEvent for round k lands between round k-1's and round k's RoundEvent.
func (r *eventRecorder) checkOrdering(t *testing.T, engine string) {
	t.Helper()
	lastRound := 0
	for _, s := range r.seq {
		if s > 0 {
			if s != lastRound+1 {
				t.Fatalf("RoundEvent %d after round %d; want in-order rounds", s, lastRound)
			}
			lastRound = s
		} else if -s != lastRound+1 {
			t.Fatalf("ClientEvent for round %d arrived while round %d was current", -s, lastRound)
		}
	}
	for _, e := range r.rounds {
		if e.Engine != engine {
			t.Fatalf("RoundEvent engine = %q, want %q", e.Engine, engine)
		}
	}
	for _, e := range r.clients {
		if e.Engine != engine {
			t.Fatalf("ClientEvent engine = %q, want %q", e.Engine, engine)
		}
	}
}

// checkConsistency asserts the per-client stream adds up to the round totals.
func (r *eventRecorder) checkConsistency(t *testing.T) {
	t.Helper()
	uploads := make(map[int]int)
	bytes := make(map[int]int64)
	count := make(map[int]int)
	for _, e := range r.clients {
		if e.Uploaded {
			uploads[e.Round]++
		}
		bytes[e.Round] += e.UplinkBytes
		count[e.Round]++
	}
	var cumBytes int64
	for _, e := range r.rounds {
		if count[e.Round] != e.Participants {
			t.Fatalf("round %d: %d ClientEvents, %d participants", e.Round, count[e.Round], e.Participants)
		}
		if uploads[e.Round] != e.Uploaded {
			t.Fatalf("round %d: client stream shows %d uploads, RoundEvent says %d",
				e.Round, uploads[e.Round], e.Uploaded)
		}
		if e.Uploaded+e.Skipped != e.Participants {
			t.Fatalf("round %d: uploaded %d + skipped %d != participants %d",
				e.Round, e.Uploaded, e.Skipped, e.Participants)
		}
		cumBytes += bytes[e.Round]
		if e.CumUplinkBytes != cumBytes {
			t.Fatalf("round %d: CumUplinkBytes = %d, client stream sums to %d",
				e.Round, e.CumUplinkBytes, cumBytes)
		}
	}
}

// TestObserverOrderingSync holds Run to the ordering contract at full
// participation and under fraction sampling, where a round's ClientEvents
// must still come in ascending client id.
func TestObserverOrderingSync(t *testing.T) {
	for _, fraction := range []float64{0, 0.5} {
		cfg := digitLogisticConfig(t, 8, true)
		cfg.Rounds = 5
		cfg.Filter = core.NewFilter(core.Constant(0.5))
		cfg.ClientFraction = fraction
		rec := &eventRecorder{}
		var progressRounds []int
		cfg.Observers = []telemetry.Observer{
			rec.observer(),
			telemetry.Funcs{Round: func(e telemetry.RoundEvent) { progressRounds = append(progressRounds, e.Round) }},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec.checkOrdering(t, telemetry.EngineSync)
		rec.checkConsistency(t)
		for k := 1; k < len(rec.clients); k++ {
			if prev, e := rec.clients[k-1], rec.clients[k]; prev.Round == e.Round && prev.Client >= e.Client {
				t.Fatalf("fraction %v, round %d: ClientEvent for client %d after client %d; want ascending ids", fraction, e.Round, e.Client, prev.Client)
			}
		}
		if len(rec.rounds) != len(res.History) {
			t.Fatalf("observed %d rounds, history has %d", len(rec.rounds), len(res.History))
		}
		for i, e := range rec.rounds {
			if e != res.History[i].RoundEvent {
				t.Fatalf("round %d: observed event %+v != history %+v", i+1, e, res.History[i].RoundEvent)
			}
		}
		// A plain Funcs observer is the progress-callback idiom: one round
		// event per history entry, in order.
		if len(progressRounds) != len(res.History) {
			t.Fatalf("round observer fired %d times, want %d", len(progressRounds), len(res.History))
		}
	}
}

func TestObserverOrderingAsync(t *testing.T) {
	cfg := asyncConfig(t, 4)
	cfg.Updates = 12
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	rec := &eventRecorder{}
	cfg.Observers = []telemetry.Observer{rec.observer()}
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.checkOrdering(t, telemetry.EngineAsync)
	rec.checkConsistency(t)
	if len(rec.rounds) != len(res.Events) {
		t.Fatalf("observed %d completions, result has %d", len(rec.rounds), len(res.Events))
	}
	for i, e := range rec.rounds {
		if e.Participants != 1 {
			t.Fatalf("async round %d: participants = %d, want 1", i+1, e.Participants)
		}
	}
	last := rec.rounds[len(rec.rounds)-1]
	if want := res.Events[len(res.Events)-1].CumUploads; last.CumUploads != want {
		t.Fatalf("final CumUploads = %d, result says %d", last.CumUploads, want)
	}
}
