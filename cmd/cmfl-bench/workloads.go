package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/experiments"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/sim"
	"cmfl/internal/xrand"
)

// Execution tiers a workload can run on.
const (
	tierFL  = "fl"
	tierEmu = "emu"
	tierSim = "sim"
)

// Scales. Full is what BENCHMARK.json describes; smoke shrinks every
// workload so `go test` can run all five, traced and untraced, in seconds.
const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

// gateSpec is the CMFL relevance gate of a workload: every update uploads
// for Warm rounds, then core.AdaptiveFilter applies a relevance threshold
// that starts at Start and is steered, round by round, toward the Target
// upload ratio. Band is the calibration band the observed upload ratio must
// stay inside. (A constant threshold, as first calibrated, lands anywhere
// from 0.15 to 0.93 depending on the seed; see README "Gate calibration".)
type gateSpec struct {
	Warm   int        `json:"warm"`
	Start  float64    `json:"start_threshold"`
	Target float64    `json:"target_upload_ratio"`
	Band   [2]float64 `json:"band"`
}

// warmGate is the workloads' upload filter: unconditional upload for the
// warm-up rounds, the adaptive CMFL gate afterwards. Warm-up rounds upload
// by fiat, so they are kept from the controller too.
type warmGate struct {
	*core.AdaptiveFilter
	warm int
}

func (g warmGate) Check(local, model, prevGlobal []float64, t int) (core.Decision, error) {
	if t <= g.warm {
		return core.Decision{Upload: true, Metric: 1}, nil
	}
	return g.AdaptiveFilter.Check(local, model, prevGlobal, t)
}

func (g warmGate) CheckSigns(local []float64, feedbackSigns []int8, t int) (core.Decision, bool, error) {
	if t <= g.warm {
		return core.Decision{Upload: true, Metric: 1}, true, nil
	}
	return g.AdaptiveFilter.CheckSigns(local, feedbackSigns, t)
}

func (g warmGate) ObserveRound(round, uploaded, participants int) {
	if round > g.warm {
		g.AdaptiveFilter.ObserveRound(round, uploaded, participants)
	}
}

// spec is the fully resolved description of one workload. Its JSON encoding
// (together with the seed) is what the scenario hash covers, so any change
// to a field makes results from before and after the change refuse to
// compare.
type spec struct {
	Name string `json:"name"`
	Tier string `json:"tier"`
	Why  string `json:"why"`

	// Model: "cnn" uses CNN, "mlp" and "logistic" use Widths.
	Model  string       `json:"model"`
	CNN    nn.CNNConfig `json:"cnn"`
	Widths []int        `json:"widths,omitempty"`
	// GEMM is the m×k×n of the largest matrix product one local SGD step
	// performs, probed for tensor.gemm_gflops.
	GEMM [3]int `json:"gemm"`

	Clients  int `json:"clients"`
	Samples  int `json:"samples_per_client"`
	Outliers int `json:"outlier_clients"`
	// TestClients is how many extra generated client shards are merged into
	// the held-out test set (synthetic populations only).
	TestClients int `json:"test_clients,omitempty"`
	TestSamples int `json:"test_samples,omitempty"`

	Rounds int     `json:"rounds"`
	Epochs int     `json:"epochs"`
	Batch  int     `json:"batch"`
	Eta0   float64 `json:"eta0"`

	Gate          *gateSpec `json:"gate,omitempty"`
	Codec         string    `json:"codec"`
	ErrorFeedback bool      `json:"error_feedback,omitempty"`

	// Emulation tier.
	Shards int `json:"shards,omitempty"`

	// Simulation tier.
	Arrival      string  `json:"arrival,omitempty"`
	Latency      string  `json:"latency,omitempty"`
	Bandwidth    float64 `json:"bandwidth_bytes_per_s,omitempty"`
	Availability float64 `json:"availability,omitempty"`
	Deadline     string  `json:"deadline,omitempty"`

	// AccuracyFloor is half the calibrated cross-seed median of the final
	// accuracy (README): far above a stalled run, below every seed's
	// ordinary result. A repetition ending below it fails its check.
	AccuracyFloor float64 `json:"accuracy_floor"`
}

// workloadNames fixes the order workloads run and print in. Later issues
// cite these names; BENCHMARK.json lists the same five.
var workloadNames = []string{"fl_cnn_gated", "emu_wide_topk", "emu_wide_gated", "sim_100k_narrow", "sim_wide_q8"}

// wideBand is the gate band smoke runs check: a handful of tiny rounds
// cannot hold the calibrated band, but the gate must neither be inert nor
// stall the run.
var wideBand = [2]float64{0.05, 1}

// calibratedBand is the ISSUE's calibration target for full-scale runs.
var calibratedBand = [2]float64{0.3, 0.9}

// lookupSpec resolves a workload name at a scale.
func lookupSpec(name, scale string) (spec, error) {
	if scale != scaleFull && scale != scaleSmoke {
		return spec{}, fmt.Errorf("unknown scale %q (want %s or %s)", scale, scaleFull, scaleSmoke)
	}
	smoke := scale == scaleSmoke
	const simArrival, simLatency, simDeadline = "lognormal:200ms,0.6", "exp:50ms", "2s"
	var s spec
	switch name {
	case "fl_cnn_gated":
		s = spec{
			Tier:  tierFL,
			Why:   "paper CNN over the quick label-sorted population: nn and tensor do almost all the work, so a kernel or local-round change shows here and an aggregation change must not",
			Model: "cnn", CNN: nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 8, Conv2: 16, Hidden: 64, Classes: 10},
			GEMM:    [3]int{2 * 8 * 8, 8 * 5 * 5, 16},
			Clients: 20, Samples: 30, Outliers: 5, TestSamples: 300,
			Rounds: 40, Epochs: 4, Batch: 2, Eta0: 0.15,
			Gate:          &gateSpec{Warm: 3, Start: 0.44, Target: 0.85, Band: calibratedBand},
			Codec:         "none",
			AccuracyFloor: 0.3,
		}
		if smoke {
			s.CNN = nn.CNNConfig{ImageSize: 12, Kernel: 3, Conv1: 3, Conv2: 6, Hidden: 24, Classes: 10}
			s.GEMM = [3]int{2 * 3 * 3, 3 * 3 * 3, 6}
			s.Clients, s.Outliers, s.TestSamples, s.Rounds = 6, 1, 60, 5
		}
	case "emu_wide_topk", "emu_wide_gated":
		s = spec{
			Tier:  tierEmu,
			Model: "mlp", Widths: []int{256, 384, 10},
			GEMM:    [3]int{8, 256, 384},
			Clients: 8, Samples: 32, TestClients: 8, Shards: 3,
			Rounds: 300, Epochs: 1, Batch: 8, Eta0: 0.05,
		}
		if name == "emu_wide_topk" {
			s.Why = "5 KB sparse uplink, yet the server densifies and exactly accumulates 102k coordinates per update: compress decode and shard add/merge dominate, uplink idle, downlink busy"
			s.Codec, s.ErrorFeedback = "top1000+quantize8", true
			s.AccuracyFloor = 0.5
		} else {
			s.Why = "same model, clients and shards with raw 820 KB update frames and the CMFL gate on: dense accumulate, busy uplink socket, codec bypassed"
			s.Codec, s.Outliers = "none", 2
			s.Gate = &gateSpec{Warm: 3, Start: 0.6, Target: 0.5, Band: calibratedBand}
			s.AccuracyFloor = 0.5
		}
		if smoke {
			s.Widths, s.GEMM = []int{32, 48, 10}, [3]int{8, 32, 48}
			s.Clients, s.TestClients, s.Shards, s.Rounds, s.Samples = 4, 4, 2, 6, 16
			if s.Outliers > 0 {
				s.Outliers = 1
			}
			if s.Codec != "none" {
				s.Codec = "top100+quantize8"
			}
		}
	case "sim_100k_narrow":
		s = spec{
			Tier:  tierSim,
			Why:   "population scale at 68 dims: per-client stream derivation, the event heap, quorum, per-client solver overhead and 100k resident deltas dominate; width-dependent layers do nothing",
			Model: "logistic", Widths: []int{16, 4},
			GEMM:    [3]int{8, 16, 4},
			Clients: 100000, Samples: 8, TestClients: 1000,
			Rounds: 40, Epochs: 1, Batch: 8, Eta0: 0.1,
			Gate:    &gateSpec{Warm: 3, Start: 0.63, Target: 0.6, Band: calibratedBand},
			Codec:   "none",
			Arrival: simArrival, Latency: simLatency, Bandwidth: 1e6, Availability: 0.9, Deadline: simDeadline,
			AccuracyFloor: 0.4,
		}
		if smoke {
			s.Clients, s.TestClients, s.Rounds = 400, 16, 5
		}
	case "sim_wide_q8":
		s = spec{
			Tier:  tierSim,
			Why:   "realistic width on the sim tier: the only workload with the gate and a dense codec at 100k dims; sim encodes every upload twice and folds with tensor.Axpy, not the exact accumulator",
			Model: "logistic", Widths: []int{1000, 100},
			GEMM:    [3]int{8, 1000, 100},
			Clients: 192, Samples: 32, TestClients: 64,
			Rounds: 22, Epochs: 1, Batch: 8, Eta0: 0.6,
			Gate:    &gateSpec{Warm: 3, Start: 0.51, Target: 0.6, Band: calibratedBand},
			Codec:   "quantize8",
			Arrival: simArrival, Latency: simLatency, Bandwidth: 1e6, Availability: 0.9, Deadline: simDeadline,
			AccuracyFloor: 0.5,
		}
		if smoke {
			s.Widths, s.GEMM = []int{100, 10}, [3]int{8, 100, 10}
			s.Clients, s.TestClients, s.Rounds = 16, 4, 5
		}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s.Name = name
	if smoke {
		s.AccuracyFloor = 0
		if s.Gate != nil {
			s.Gate.Warm, s.Gate.Band = 2, wideBand
		}
	}
	return s, nil
}

// scenarioHash is the SHA-256 of the resolved workload config and the seed
// — the cohort key -compare refuses to mix.
func scenarioHash(s spec, seed int64) (string, error) {
	doc, err := json.Marshal(struct {
		Spec spec  `json:"spec"`
		Seed int64 `json:"seed"`
	}{s, seed})
	if err != nil {
		return "", fmt.Errorf("scenario hash: %w", err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// instance is a workload materialised from a seed: everything the engines
// receive. The engines see only these generated inputs, never the seed's
// provenance.
type instance struct {
	spec   spec
	seed   int64
	model  func() *nn.Network
	dim    int
	shards []*dataset.Set
	test   *dataset.Set

	lr     core.Schedule
	filter fl.UploadFilter // nil = vanilla
	codec  compress.Codec  // nil = raw float64 uplink

	arrival, latency sim.Dist
	deadline         time.Duration

	// datasetBuildS is the data-generation share of set-up.
	datasetBuildS float64
}

// gated reports whether the workload runs the CMFL gate.
func (in *instance) gated() bool { return in.spec.Gate != nil }

// setup materialises a workload from the seed: data generation, model
// factory, codec parse, gate and timing distributions. It is the timed
// set-up region (setup_s).
func setup(s spec, seed int64) (*instance, error) {
	in := &instance{spec: s, seed: seed, lr: core.InvSqrt{V0: s.Eta0}}
	dataStart := time.Now()
	switch s.Model {
	case "cnn":
		su := experiments.QuickMNIST()
		su.Clients, su.SamplesPerClient, su.TestSamples = s.Clients, s.Samples, s.TestSamples
		su.OutlierClients, su.CNN, su.Seed = s.Outliers, s.CNN, seed
		fed, err := su.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		in.shards, in.test, in.model = fed.Shards, fed.Test, fed.Model
	case "mlp", "logistic":
		in0, classes := s.Widths[0], s.Widths[len(s.Widths)-1]
		wl, err := sim.SyntheticWorkload(s.Clients+s.TestClients, in0, classes, s.Samples, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		in.shards, in.test = wl.Shards[:s.Clients], dataset.Merge(wl.Shards[s.Clients:])
		// Outliers are the lowest-numbered clients with every label
		// randomised: tangential updates the gate should withhold.
		for c := 0; c < s.Outliers; c++ {
			dataset.CorruptLabels(in.shards[c], 1, classes, xrand.Derive(seed, "bench-outlier", c))
		}
		widths := s.Widths
		in.model = func() *nn.Network { return nn.NewMLP(xrand.Derive(seed, "bench-init", 0), widths...) }
	default:
		return nil, fmt.Errorf("%s: unknown model %q", s.Name, s.Model)
	}
	in.datasetBuildS = time.Since(dataStart).Seconds()
	in.dim = in.model().NumParams()

	codec, err := compress.ParseName(s.Codec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	in.codec = codec
	if s.Gate != nil {
		in.filter = warmGate{core.NewAdaptiveFilter(s.Gate.Start, s.Gate.Target), s.Gate.Warm}
	}
	if s.Tier == tierSim {
		if in.arrival, err = sim.ParseDist(s.Arrival); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if in.latency, err = sim.ParseDist(s.Latency); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if in.deadline, err = time.ParseDuration(s.Deadline); err != nil {
			return nil, fmt.Errorf("%s: deadline: %w", s.Name, err)
		}
	}
	return in, nil
}
