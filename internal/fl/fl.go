// Package fl implements the synchronous federated-learning engine of the
// paper (Sec. II-A): a central server broadcasts the global model, every
// client runs E epochs of local minibatch SGD on its private shard, and the
// server averages the uploaded deltas into a global update.
//
// Communication mitigation plugs in through UploadFilter: vanilla FL always
// uploads, Gaia gates on update magnitude, CMFL gates on sign-alignment
// relevance against the previous global update. The engine accounts for the
// paper's two cost metrics — accumulated communication rounds (Eq. 4) and
// uplink bytes — and records the traces needed for every figure.
//
// Algorithm 1 is written once: ClientStep is its client half, Aggregator its
// server half, and one synchronous loop drives both over a fixed set of
// workers. Run is that loop under FedAvg's fraction sampling; internal/sim
// plugs availability, reply delays and its round close in through Schedule
// and RunSchedule; the internal/emu client and server use the two halves
// over TCP (DESIGN.md, "Algorithm 1, once"). RunAsync runs both halves too,
// closing each client completion as a round of one.
package fl

import (
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

// UploadFilter is the client-side gate deciding whether a local update is
// transferred to the server. Implementations must be safe for concurrent
// use; the engine calls Check from one goroutine per client.
//
// local is the client's update (delta of the flat parameter vector), model
// is the global parameter vector the round started from, prevGlobal is the
// most recent non-empty global update (the feedback of Sec. IV-A), and t is
// the 1-based round number.
type UploadFilter interface {
	Name() string
	Check(local, model, prevGlobal []float64, t int) (core.Decision, error)
}

// Vanilla is the no-filter baseline: every client uploads every round.
type Vanilla struct{}

// Name implements UploadFilter.
func (Vanilla) Name() string { return "vanilla" }

// Check implements UploadFilter.
func (Vanilla) Check(local, model, prevGlobal []float64, t int) (core.Decision, error) {
	return core.Decision{Upload: true, Metric: 1}, nil
}

// SignChecker is an optional extension of UploadFilter: filters whose
// decision depends only on the signs of the feedback (CMFL's Eq. 9) can
// check against a sign vector the engine precomputes once per round instead
// of re-deriving signs from the float feedback per client. An empty sign
// slice means "no feedback yet". The bool result reports whether the fast
// path applied; false makes the engine fall back to Check.
type SignChecker interface {
	CheckSigns(local []float64, feedbackSigns []int8, t int) (core.Decision, bool, error)
}

// FilterFeedback is an optional extension of UploadFilter: after every
// round, and every RunAsync completion, the engine reports how many of the
// participants uploaded, letting stateful filters (e.g. core.AdaptiveFilter)
// adjust their thresholds. It is the filter-facing feedback channel; the
// telemetry-facing hook is telemetry.Observer (Config.Observers).
type FilterFeedback interface {
	ObserveRound(round, uploaded, participants int)
}

// UpdateCodec lossily compresses uploaded updates; implemented by the
// codecs in internal/compress (it is structurally identical to
// compress.Codec, redeclared here to keep the dependency arrow pointing
// from compress to fl's interface consumers). The Into forms reuse the
// caller's buffer capacity, returning a slice that aliases it, so
// steady-state encode/decode is allocation-free (and ClientStep.Pack
// decodes into the update itself). Must be safe for concurrent use.
type UpdateCodec interface {
	Name() string
	EncodeInto(dst []byte, update []float64) ([]byte, error)
	DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error)
}

// sparseDecoder restates compress.SparseDecoder as UpdateCodec restates
// compress.Codec: a payload that names the coordinates it carries decodes to
// (strictly ascending idx below dim, vals), every other coordinate +0.
type sparseDecoder interface {
	DecodeSparseInto(idx []uint32, vals []float64, payload []byte, dim int) ([]uint32, []float64, error)
}

// SkipNotificationBytes is the paper's price of the status message a client
// sends in place of a filtered-out update (client id + round + relevance;
// emu's frame adds the loss, a diagnostic left unpriced), negligible next to
// a full weight vector, as its EC2 implementation note says.
const SkipNotificationBytes = 16

// Config describes one federated training run.
type Config struct {
	// Model builds a fresh network with the experiment's architecture.
	// Called once for the server and once per worker; every worker reloads
	// the broadcast global parameters per client, so the factory's weight
	// initialisation only matters for the server's copy (and for the
	// ClientParams of a client that never trains).
	Model func() *nn.Network

	// ClientData holds one private shard per client.
	ClientData []*dataset.Set
	// TestData is the held-out set for global accuracy evaluation.
	TestData *dataset.Set

	// Epochs is E, local passes over the shard per round (paper: 4).
	Epochs int
	// Batch is B, the local minibatch size (paper: 2).
	Batch int
	// LR is the learning-rate schedule η_t (paper: η0/√t for CMFL/Gaia).
	LR core.Schedule
	// Filter gates uploads; nil means Vanilla.
	Filter UploadFilter

	// Compressor lossily encodes every uploaded update (the bit-reduction
	// approach of the paper's related work); nil uploads raw float64
	// vectors. When set, uplink bytes count the encoded payload size and
	// the server aggregates the decoded (lossy) updates. Composes freely
	// with Filter — filtering decides *whether* to upload, compression
	// decides *how many bits* the upload costs.
	Compressor UpdateCodec

	// ErrorFeedback keeps a per-client residual of what lossy compression
	// discarded (EF-SGD, Karimireddy et al.): each round the client adds the
	// accumulated residual to its update before encoding and stores the new
	// encode error afterwards, so dropped mass re-enters later rounds
	// instead of vanishing. Residuals live client-side and are untouched on
	// skipped rounds, which keeps gating and compression composable and the
	// whole pipeline deterministic. Ignored when Compressor is nil.
	ErrorFeedback bool

	// ClientFraction is C from FedAvg: the fraction of clients sampled to
	// participate each round (0 or 1 = full participation). Sampled
	// clients are chosen uniformly per round from the engine seed.
	ClientFraction float64

	// ProxMu adds FedProx's proximal term μ/2·‖w − w_global‖² to every
	// local step, pulling client optima toward the broadcast model. It
	// tames client drift under heavy non-IIDness and composes with CMFL
	// (drift-limited updates align better with the global trend). Zero
	// disables it (plain FedAvg local solver, as in the paper).
	ProxMu float64

	// DPClip bounds each update's L2 norm before upload (client-level
	// differential privacy, Geyer et al. — the privacy line of work the
	// paper builds on). Zero disables clipping.
	DPClip float64
	// DPNoiseSigma adds N(0, σ²) noise to every coordinate of the clipped
	// update before the relevance check and upload. Zero disables noise.
	// Noise is drawn from the client's deterministic stream.
	DPNoiseSigma float64

	// ServerMomentum applies FedAvgM-style momentum to the aggregated
	// global update: v ← μv + ū; x ← x + v. Zero disables it (the paper's
	// plain averaging). Momentum smooths the round-to-round global update,
	// which also stabilises CMFL's Eq. 8 feedback estimate.
	ServerMomentum float64

	// Rounds is the maximum number of synchronous iterations.
	Rounds int
	// TargetAccuracy stops the run early once reached (0 disables).
	TargetAccuracy float64
	// EvalEvery evaluates global accuracy every k rounds (default 1).
	EvalEvery int
	// EvalBatch is the forward-pass batch size during evaluation (default 64).
	EvalBatch int

	// Parallelism is the number of workers that train clients side by side,
	// each with its own model replica (default: GOMAXPROCS; never more than
	// the clients). Results do not depend on it.
	Parallelism int
	// Seed drives all engine randomness (shuffles), derived per client.
	Seed int64

	// FeedbackStaleness makes clients compare against the global update
	// from k rounds ago instead of the previous round (ablation of the
	// Eq. 8 smoothness assumption). Default 1.
	FeedbackStaleness int

	// Observers receive live telemetry: every round the engine emits one
	// telemetry.ClientEvent per participant, in ascending client id, then
	// one telemetry.RoundEvent, synchronously from the engine goroutine.
	// Attach a telemetry.Collector to feed a metrics registry.
	Observers []telemetry.Observer
}

// RoundStats records one synchronous round on every tier (sim's and emu's
// records embed it): the communication-cost core and the diagnostics
// Aggregator.Finish takes over the accepted replies. Only Run records
// MeanSignificance and DeltaUpdate; the other engines leave them NaN.
type RoundStats struct {
	telemetry.RoundEvent

	// TrainLoss is the mean local training loss of the accepted replies.
	TrainLoss float64
	// MeanSignificance is the client-mean of Gaia's ‖u‖/‖x‖ (Fig. 2a).
	MeanSignificance float64
	// MeanRelevance is the accepted replies' mean Eq. 9 relevance against
	// the feedback update (Fig. 2b), whatever the gate; NaN without one.
	MeanRelevance float64
	// DeltaUpdate is Eq. 8 between this round's and the previous round's
	// global updates (Fig. 3); NaN when undefined.
	DeltaUpdate float64
}

// Result is the outcome of a Run.
type Result struct {
	History []RoundStats
	// FinalParams is the global parameter vector after the last round.
	FinalParams []float64
	// ClientParams holds each client's locally trained parameter vector
	// from the last round it trained in (the initial model if none), for
	// the Fig. 1 / Fig. 6 divergence analysis. Run only.
	ClientParams [][]float64
	// SkipCounts is the number of filtered (not uploaded) updates per
	// client over the whole run.
	SkipCounts []int
	// FilterName echoes the filter used.
	FilterName string
}

// FinalAccuracy returns the last evaluated accuracy, or NaN if none.
func (r *Result) FinalAccuracy() float64 { return telemetry.FinalAccuracy(r.History) }

// ClientStream derives the engine's per-client randomness. The emulated
// engine calls this too, so both engines draw bit-identical client streams
// from a single derivation site.
func ClientStream(seed int64, client int) *xrand.Stream {
	return xrand.Derive(seed, "fl-client", client)
}
