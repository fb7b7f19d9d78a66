// Package cmfl is the public API of this repository: a from-scratch Go
// implementation of Communication-Mitigated Federated Learning (Wang, Wang,
// Li — ICDCS 2019) together with every substrate the paper's evaluation
// needs: a neural-network library with manual backprop, synthetic non-IID
// datasets, a synchronous federated-learning engine, the Gaia baseline, a
// MOCHA-style federated multi-task learner, and a TCP master–slave
// emulation with exact wire-byte accounting.
//
// The package re-exports the internal building blocks as type aliases, so a
// downstream user only imports "cmfl":
//
//	shards, _ := cmfl.SortedShards(data, 100, 2, cmfl.NewStream(7))
//	res, _ := cmfl.RunFederated(cmfl.FederatedConfig{
//		Model:      func() *cmfl.Network { return cmfl.NewCNN(cmfl.DefaultCNNConfig(), cmfl.DeriveStream(7, "init", 0)) },
//		ClientData: shards,
//		TestData:   test,
//		Epochs:     4, Batch: 2,
//		LR:     cmfl.InvSqrt{V0: 0.1},
//		Filter: cmfl.NewCMFLFilter(cmfl.InvSqrt{V0: 0.8}),
//		Rounds: 300,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results of every table and figure.
package cmfl

import (
	"net/http"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu"
	"cmfl/internal/fl"
	"cmfl/internal/gaia"
	"cmfl/internal/mtl"
	"cmfl/internal/nn"
	"cmfl/internal/report"
	"cmfl/internal/stats"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// ---- The paper's contribution (internal/core, internal/gaia) ----

// Relevance computes the paper's Eq. 9: the fraction of same-sign
// coordinates between a local update and the (estimated) global update.
func Relevance(local, global []float64) (float64, error) { return core.Relevance(local, global) }

// CosineRelevance is the cosine-similarity ablation variant of Eq. 9.
func CosineRelevance(local, global []float64) (float64, error) {
	return core.CosineRelevance(local, global)
}

// DeltaUpdate computes Eq. 8, the normalized difference of two sequential
// global updates.
func DeltaUpdate(prev, next []float64) (float64, error) { return core.DeltaUpdate(prev, next) }

// Significance computes Gaia's magnitude metric ‖update‖/‖model‖.
func Significance(update, model []float64) (float64, error) {
	return gaia.Significance(update, model)
}

// Schedule maps a 1-based round number to a threshold or learning rate.
type Schedule = core.Schedule

// Constant is a time-invariant Schedule.
type Constant = core.Constant

// InvSqrt decays as V0/√t, the schedule of the paper's Theorem 1 remark.
type InvSqrt = core.InvSqrt

// Step holds V0 for Warm rounds, then switches to After.
type Step = core.Step

// Decision is a filter's verdict for one local update.
type Decision = core.Decision

// CMFLFilter is the paper's client-side relevance gate.
type CMFLFilter = core.Filter

// NewCMFLFilter builds the CMFL upload filter with a relevance-threshold
// schedule v(t).
func NewCMFLFilter(threshold Schedule) *CMFLFilter { return core.NewFilter(threshold) }

// AdaptiveFilter is a CMFL extension that self-tunes its relevance
// threshold to track a target upload fraction.
type AdaptiveFilter = core.AdaptiveFilter

// NewAdaptiveFilter builds the self-tuning CMFL filter.
func NewAdaptiveFilter(start, target float64) *AdaptiveFilter {
	return core.NewAdaptiveFilter(start, target)
}

// GaiaFilter is the magnitude-based baseline filter.
type GaiaFilter = gaia.Filter

// NewGaiaFilter builds the Gaia significance filter.
func NewGaiaFilter(threshold Schedule) *GaiaFilter { return gaia.NewFilter(threshold) }

// ---- Telemetry & observability (internal/telemetry) ----

// RoundEvent is the communication-cost core every engine records per round;
// the per-engine stats types embed it.
type RoundEvent = telemetry.RoundEvent

// ClientEvent records one client's upload/skip decision inside a round.
type ClientEvent = telemetry.ClientEvent

// Observer receives live engine telemetry; attach implementations through
// the Observers field of any engine config.
type Observer = telemetry.Observer

// ObserverFuncs adapts plain functions to the Observer interface.
type ObserverFuncs = telemetry.Funcs

// Registry is the dependency-free metrics registry (counters, gauges,
// fixed-bucket histograms) behind the /metrics endpoint.
type Registry = telemetry.Registry

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// Collector is the bridge from the engine event stream to a Registry: an
// Observer maintaining the standard cmfl_* metric families per engine.
type Collector = telemetry.Collector

// NewCollector creates a Collector writing into reg.
func NewCollector(reg *Registry) *Collector { return telemetry.NewCollector(reg) }

// MetricsHandler exposes a registry over HTTP as a Prometheus-text /metrics
// and JSON /healthz endpoint.
func MetricsHandler(reg *Registry) http.Handler { return telemetry.Handler(reg) }

// MetricsServer is a live /metrics + /healthz endpoint bound to a TCP port.
type MetricsServer = telemetry.MetricsServer

// ServeMetrics binds addr and serves reg in the background until Close.
func ServeMetrics(addr string, reg *Registry) (*MetricsServer, error) {
	return telemetry.Serve(addr, reg)
}

// ---- Federated engine (internal/fl) ----

// UploadFilter gates client uploads; CMFLFilter, GaiaFilter and Vanilla
// implement it.
type UploadFilter = fl.UploadFilter

// FilterFeedback is the optional UploadFilter extension through which the
// engines report each round's upload count back to stateful filters (e.g.
// AdaptiveFilter).
type FilterFeedback = fl.FilterFeedback

// Vanilla always uploads (plain FedAvg-style FL).
type Vanilla = fl.Vanilla

// FederatedConfig configures a synchronous federated training run.
type FederatedConfig = fl.Config

// FederatedResult is the outcome of RunFederated.
type FederatedResult = fl.Result

// RoundStats records one synchronous round; its communication core is the
// embedded RoundEvent.
type RoundStats = fl.RoundStats

// SkipNotificationBytes is the wire cost of a withheld update's status
// message.
const SkipNotificationBytes = fl.SkipNotificationBytes

// RunFederated executes Algorithm 1 over in-process simulated clients.
func RunFederated(cfg FederatedConfig) (*FederatedResult, error) { return fl.Run(cfg) }

// UpdateCodec lossily compresses uploaded updates (the related work's
// bit-reduction approach); set FederatedConfig.Compressor to apply one.
type UpdateCodec = fl.UpdateCodec

// Quantize8 is 8-bit uniform quantisation of updates (a sketched update).
type Quantize8 = compress.Uniform8

// TopKSparsifier keeps only the K largest-magnitude coordinates per upload
// (a structured update).
type TopKSparsifier = compress.TopK

// RandomMaskCodec transmits a seed-determined random subset of coordinates.
type RandomMaskCodec = compress.RandomMask

// SignCodec is 1-bit sign quantisation with a per-chunk mean-magnitude
// scale (signSGD-style).
type SignCodec = compress.Sign1Bit

// CodebookCodec is k-means scalar quantisation: a per-update codebook of
// centroids plus one byte per coordinate.
type CodebookCodec = compress.Codebook

// CodecChain composes a sparsifying selector with a value codec (e.g. top-k
// then 8-bit quantisation) into one UpdateCodec.
type CodecChain = compress.Chain

// NewCodecChain builds a validated selector→values chain.
func NewCodecChain(sel compress.Selector, values compress.Codec) CodecChain {
	return compress.NewChain(sel, values)
}

// ParseCodec resolves a codec name — none|identity|quantize8|top<k>|
// mask<pct>|sign1bit[/<chunk>]|codebook[<k>]|<selector>+<values> — to an
// UpdateCodec (nil for "none"). The same grammar backs the CLIs' -compress
// flags.
func ParseCodec(name string) (UpdateCodec, error) { return compress.ParseName(name) }

// AsyncConfig configures the asynchronous (FedAsync-style) extension with
// simulated stragglers and staleness-damped aggregation.
type AsyncConfig = fl.AsyncConfig

// AsyncResult is the outcome of RunAsyncFederated.
type AsyncResult = fl.AsyncResult

// RunAsyncFederated executes the asynchronous federated simulation; CMFL's
// relevance gate applies against an EMA of recently applied updates.
func RunAsyncFederated(cfg AsyncConfig) (*AsyncResult, error) { return fl.RunAsync(cfg) }

// LocalTrain is the client-side local optimisation step shared by the
// simulation and the TCP emulation.
func LocalTrain(net *Network, data *Set, global []float64, lr float64, epochs, batch int, rng *Stream) (delta []float64, loss float64, err error) {
	return fl.LocalTrain(net, data, global, lr, epochs, batch, rng)
}

// ---- Neural networks (internal/nn) ----

// Network is a sequence of layers with flat parameter-vector views.
type Network = nn.Network

// Layer is one differentiable stage of a Network.
type Layer = nn.Layer

// Tensor is a dense float64 array with a shape.
type Tensor = tensor.Tensor

// NewTensor allocates a zeroed tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// CNNConfig configures the paper's MNIST-style CNN.
type CNNConfig = nn.CNNConfig

// DefaultCNNConfig is the scaled-down digit CNN.
func DefaultCNNConfig() CNNConfig { return nn.DefaultCNNConfig() }

// NewCNN builds the digit-recognition CNN.
func NewCNN(cfg CNNConfig, rng *Stream) *Network { return nn.NewCNN(cfg, rng) }

// LSTMConfig configures the next-word-prediction model.
type LSTMConfig = nn.LSTMConfig

// DefaultLSTMConfig is the scaled-down next-word model.
func DefaultLSTMConfig(vocab int) LSTMConfig { return nn.DefaultLSTMConfig(vocab) }

// NewNextWordLSTM builds embedding → stacked LSTM → vocabulary head.
func NewNextWordLSTM(cfg LSTMConfig, rng *Stream) *Network { return nn.NewNextWordLSTM(cfg, rng) }

// NewMLP builds a ReLU multilayer perceptron over the given widths.
func NewMLP(rng *Stream, widths ...int) *Network { return nn.NewMLP(rng, widths...) }

// NewLogistic builds a linear softmax classifier.
func NewLogistic(in, classes int, rng *Stream) *Network { return nn.NewLogistic(in, classes, rng) }

// NewLogisticFlat builds Flatten → Dense: a linear classifier over samples
// of any shape whose element count is in (e.g. image tensors).
func NewLogisticFlat(in, classes int, rng *Stream) *Network {
	return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(in, classes, rng))
}

// ---- Datasets (internal/dataset) ----

// Set is a supervised dataset (X indexed by sample, integer labels Y).
type Set = dataset.Set

// DigitsConfig configures the synthetic MNIST stand-in.
type DigitsConfig = dataset.DigitsConfig

// Digits generates synthetic handwritten-style digits.
func Digits(cfg DigitsConfig) (*Set, error) { return dataset.Digits(cfg) }

// DefaultDigitsConfig is the scaled-down MNIST stand-in configuration.
func DefaultDigitsConfig() DigitsConfig { return dataset.DefaultDigitsConfig() }

// DialogueConfig configures the synthetic Shakespeare-style corpus.
type DialogueConfig = dataset.DialogueConfig

// Dialogue is the generated multi-role next-word corpus.
type Dialogue = dataset.Dialogue

// GenerateDialogue builds the per-role next-word-prediction federation.
func GenerateDialogue(cfg DialogueConfig) (*Dialogue, error) { return dataset.GenerateDialogue(cfg) }

// DefaultDialogueConfig is the scaled-down Shakespeare stand-in.
func DefaultDialogueConfig() DialogueConfig { return dataset.DefaultDialogueConfig() }

// HARConfig configures the Human-Activity-Recognition stand-in.
type HARConfig = dataset.HARConfig

// HAR is the generated activity-recognition federation.
type HAR = dataset.HAR

// GenerateHAR builds the HAR federation with explicit outlier clients.
func GenerateHAR(cfg HARConfig) (*HAR, error) { return dataset.GenerateHAR(cfg) }

// DefaultHARConfig mirrors the paper's 142-client HAR setup.
func DefaultHARConfig() HARConfig { return dataset.DefaultHARConfig() }

// SemeionConfig configures the Semeion digit stand-in.
type SemeionConfig = dataset.SemeionConfig

// Semeion generates the 256-feature binarised digit dataset.
func Semeion(cfg SemeionConfig) (*Set, error) { return dataset.Semeion(cfg) }

// DefaultSemeionConfig mirrors the paper's Semeion size.
func DefaultSemeionConfig() SemeionConfig { return dataset.DefaultSemeionConfig() }

// WriterDigitsConfig configures the per-writer digit federation with
// feature-level (style) heterogeneity.
type WriterDigitsConfig = dataset.WriterDigitsConfig

// WriterDigits generates a federation of digit "writers" with personal
// rendering styles; the returned indices mark the extreme-style writers.
func WriterDigits(cfg WriterDigitsConfig) (clients []*Set, extremeIdx []int, err error) {
	return dataset.WriterDigits(cfg)
}

// SortedShards partitions label-sorted data into non-IID client shards.
func SortedShards(s *Set, clients, shardsPerClient int, rng *Stream) ([]*Set, error) {
	return dataset.SortedShards(s, clients, shardsPerClient, rng)
}

// IIDSplit partitions data uniformly at random (ablation control).
func IIDSplit(s *Set, clients int, rng *Stream) ([]*Set, error) {
	return dataset.IIDSplit(s, clients, rng)
}

// SplitClients partitions data across clients with random sizes.
func SplitClients(s *Set, clients, minSamples, maxSamples int, rng *Stream) ([]*Set, error) {
	return dataset.SplitClients(s, clients, minSamples, maxSamples, rng)
}

// MergeSets concatenates datasets with identical sample shapes.
func MergeSets(sets []*Set) *Set { return dataset.Merge(sets) }

// ---- Multi-task learning (internal/mtl) ----

// MTLConfig configures a MOCHA-style federated multi-task run.
type MTLConfig = mtl.Config

// MTLResult is the outcome of RunMTL.
type MTLResult = mtl.Result

// OmegaMode selects the relationship-matrix strategy.
type OmegaMode = mtl.OmegaMode

// Relationship-matrix modes.
const (
	OmegaMeanRegularized = mtl.OmegaMeanRegularized
	OmegaLearned         = mtl.OmegaLearned
)

// RunMTL executes federated multi-task training (optionally with CMFL).
func RunMTL(cfg MTLConfig) (*MTLResult, error) { return mtl.Run(cfg) }

// ---- TCP emulation (internal/emu) ----

// ServerConfig configures the emulation master; set MetricsAddr to serve
// /metrics and /healthz while the cluster runs.
type ServerConfig = emu.ServerConfig

// Limits bounds an emulation's timing, quorum, and fault posture; it is
// embedded by ServerConfig and ClusterConfig.
type Limits = emu.Limits

// Topology lays out the emulation server's aggregation tree (Shards > 1
// enables the two-tier sharded server; the aggregate is bit-identical to
// the flat one by construction).
type Topology = emu.Topology

// EmuRoundStats is the emulation master's round record: the record every
// tier keeps (fl.RoundStats) plus wire-level running totals.
type EmuRoundStats = emu.RoundStats

// Server is the emulation master.
type Server = emu.Server

// NewServer binds the master's listen socket.
func NewServer(cfg ServerConfig) (*Server, error) { return emu.NewServer(cfg) }

// ClientConfig configures one emulation slave.
type ClientConfig = emu.ClientConfig

// RunEmulationClient joins a remote server and trains until done.
func RunEmulationClient(cfg ClientConfig) (*emu.ClientResult, error) { return emu.RunClient(cfg) }

// ClusterConfig configures an in-process localhost cluster.
type ClusterConfig = emu.ClusterConfig

// ClusterResult combines server and client views of a cluster run.
type ClusterResult = emu.ClusterResult

// RunCluster runs a full master+slaves emulation over localhost TCP.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return emu.RunCluster(cfg) }

// FaultPlan schedules deterministic transport faults for an emulated
// cluster (at most one per client per round); the same plan value drives
// arbitrarily many runs to bit-identical global models.
type FaultPlan = emu.FaultPlan

// Fault is one scheduled transport failure.
type Fault = emu.Fault

// FaultKind enumerates the injectable failure classes.
type FaultKind = emu.FaultKind

// FaultRates configures RandomFaultPlan's per-cell fault probabilities.
type FaultRates = emu.FaultRates

// Fault classes injectable at the emulated clients' connection layer.
const (
	FaultNone         = emu.FaultNone
	FaultDropUpdate   = emu.FaultDropUpdate
	FaultDelay        = emu.FaultDelay
	FaultDisconnect   = emu.FaultDisconnect
	FaultCrashRejoin  = emu.FaultCrashRejoin
	FaultCorruptFrame = emu.FaultCorruptFrame
)

// NewFaultPlan returns an empty fault plan; populate it with Add.
func NewFaultPlan() *FaultPlan { return emu.NewFaultPlan() }

// RandomFaultPlan draws a reproducible fault plan over clients×rounds from
// a seeded stream.
func RandomFaultPlan(seed int64, clients, rounds int, rates FaultRates) *FaultPlan {
	return emu.RandomFaultPlan(seed, clients, rounds, rates)
}

// ---- Measurement (internal/stats, internal/report) ----

// CDF is an empirical cumulative distribution.
type CDF = stats.CDF

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) *CDF { return stats.NewCDF(samples) }

// NormalizedModelDivergence computes Eq. 7 per parameter.
func NormalizedModelDivergence(clientParams [][]float64, global []float64) ([]float64, error) {
	return stats.NormalizedModelDivergence(clientParams, global)
}

// AccuracyTrace is a (cumulative uploads, accuracy) series.
type AccuracyTrace = stats.AccuracyTrace

// Saving computes Φ_vanilla/Φ_alg at a target accuracy (Sec. V).
func Saving(vanilla, alg *AccuracyTrace, target float64) (float64, bool) {
	return stats.Saving(vanilla, alg, target)
}

// RenderTable renders an aligned plain-text table.
func RenderTable(headers []string, rows [][]string) string { return report.Table(headers, rows) }

// PlotSeries is one line of an ASCII plot.
type PlotSeries = report.Series

// RenderPlot renders series on an ASCII grid.
func RenderPlot(title string, width, height int, series ...PlotSeries) string {
	return report.Plot(title, width, height, series...)
}

// ---- Randomness (internal/xrand) ----

// Stream is a deterministic random stream.
type Stream = xrand.Stream

// NewStream seeds a stream directly.
func NewStream(seed int64) *Stream { return xrand.New(seed) }

// DeriveStream derives an independent child stream from (seed, purpose, id).
func DeriveStream(seed int64, purpose string, id int) *Stream {
	return xrand.Derive(seed, purpose, id)
}
