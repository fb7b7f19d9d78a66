// Package telemetry is the repository's unified observability layer: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms), a RoundEvent schema shared by every training engine, and an
// Observer interface the engines invoke as training progresses.
//
// The paper's entire claim is measured in communication — accumulated
// communication rounds (Eq. 4) and uplink bytes — so those quantities must
// be observable *while* a run is in flight, not reconstructed from result
// histories afterwards. Every engine (fl.Run and sim.Run, which share fl's
// synchronous loop, the TCP emulation master, fl.RunAsync and mtl.Run, all
// through fl.Aggregator) emits the same RoundEvent through the same Observer
// interface; Collector turns the event stream into registry metrics, and
// Handler exposes the registry as a Prometheus-text /metrics and JSON
// /healthz endpoint.
//
// Instrumentation stays off the per-step training hot path: events are
// emitted once per round (or per async completion), never per minibatch,
// and the built-in observers are allocation-free at steady state.
package telemetry

import "math"

// Engine labels used by the built-in engines when emitting events.
const (
	EngineSync  = "fl"
	EngineAsync = "fl-async"
	EngineMTL   = "mtl"
	EngineEmu   = "emu"
	EngineSim   = "sim"
)

// RoundEvent is the communication-cost core every engine records per round:
// who participated, who uploaded, what it cost so far, and where accuracy
// stands. The per-engine stats types embed it instead of re-declaring the
// fields (fl.RoundStats, which mtl keeps as is and sim.RoundStats and
// emu.RoundStats embed in turn), so one schema serves result histories and
// live observation alike.
type RoundEvent struct {
	// Engine identifies the emitting engine (see the Engine* constants).
	Engine string
	// Round is the 1-based synchronous round number; asynchronous engines
	// use the 1-based completion index.
	Round int
	// Participants is the number of clients the round's broadcast reached
	// (in emu, plus any whose reply promoted it): Uploaded + Skipped +
	// Dropped.
	Participants int
	// Uploaded / Skipped split the participants by the filter's verdict.
	Uploaded int
	Skipped  int
	// CumUploads is Φ, the accumulated communication rounds (Eq. 4).
	CumUploads int
	// CumUplinkBytes counts update payloads plus skip notifications at the
	// application level (the paper's byte metric).
	CumUplinkBytes int64
	// Dropped is the number of clients excluded from this round's
	// aggregation: stragglers cut at the quorum deadline (emu, sim). Always 0
	// for engines without a deadline.
	Dropped int
	// Faults is the number of transport faults observed this round:
	// connection failures, malformed frames, protocol violations. Only the
	// emulation engine, which has a real network stack, can report nonzero
	// values.
	Faults int
	// Accuracy is the global test accuracy after this round's aggregation;
	// NaN on rounds without evaluation.
	Accuracy float64
}

// Event returns the event itself; through struct embedding it makes every
// per-engine stats type implement Eventer, so generic helpers (e.g.
// experiments.TraceOf) can consume any engine's history.
func (e RoundEvent) Event() RoundEvent { return e }

// Evaluated reports whether this round carries an accuracy measurement.
func (e RoundEvent) Evaluated() bool { return !math.IsNaN(e.Accuracy) }

// Eventer is implemented by any stats struct that embeds RoundEvent.
type Eventer interface {
	Event() RoundEvent
}

// FinalAccuracy returns the accuracy of history's last evaluated round, or
// NaN when no round was evaluated.
func FinalAccuracy[E Eventer](history []E) float64 {
	for i := len(history) - 1; i >= 0; i-- {
		if e := history[i].Event(); e.Evaluated() {
			return e.Accuracy
		}
	}
	return math.NaN()
}

// ClientEvent records one client's upload/skip decision inside a round —
// the per-client stream behind upload-fraction and relevance-distribution
// observability.
type ClientEvent struct {
	// Engine identifies the emitting engine.
	Engine string
	// Round matches the RoundEvent the decision belongs to; engines emit
	// every ClientEvent of a round before that round's RoundEvent.
	Round int
	// Client is the client (or task) index.
	Client int
	// Uploaded reports the filter's verdict for this client's update.
	Uploaded bool
	// Relevance is Eq. 9 of the client's update against the round's
	// feedback, whatever the filter decided on; NaN while no feedback
	// exists.
	Relevance float64
	// UplinkBytes is what the decision cost: the payload size for uploads,
	// the skip-notification size otherwise.
	UplinkBytes int64
}

// Observer receives engine telemetry. Implementations must be safe for use
// from the engine goroutine; engines call OnClient for every participant of
// a round (in client order) and then OnRound exactly once, synchronously,
// so an observer needs no locking against the emitting engine itself.
type Observer interface {
	OnRound(RoundEvent)
	OnClient(ClientEvent)
}

// Funcs adapts plain functions to Observer; nil fields are skipped.
type Funcs struct {
	Round  func(RoundEvent)
	Client func(ClientEvent)
}

// OnRound implements Observer.
func (f Funcs) OnRound(e RoundEvent) {
	if f.Round != nil {
		f.Round(e)
	}
}

// OnClient implements Observer.
func (f Funcs) OnClient(e ClientEvent) {
	if f.Client != nil {
		f.Client(e)
	}
}

// EmitRound delivers a round event to every observer in order.
func EmitRound(obs []Observer, e RoundEvent) {
	for _, o := range obs {
		o.OnRound(e)
	}
}

// EmitClient delivers a client event to every observer in order.
func EmitClient(obs []Observer, e ClientEvent) {
	for _, o := range obs {
		o.OnClient(e)
	}
}
