package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/gaia"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// digitLogisticConfig builds a small, fast federated setup: a linear
// classifier on 10×10 synthetic digits split across clients.
func digitLogisticConfig(t *testing.T, clients int, nonIID bool) Config {
	t.Helper()
	all, err := dataset.Digits(dataset.DigitsConfig{
		Samples: 600, ImageSize: 10, Noise: 0.2, MaxShift: 0, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	var shards []*dataset.Set
	if nonIID {
		shards, err = dataset.SortedShards(all, clients, 2, xrand.New(22))
	} else {
		shards, err = dataset.IIDSplit(all, clients, xrand.New(22))
	}
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.Digits(dataset.DigitsConfig{
		Samples: 200, ImageSize: 10, Noise: 0.2, MaxShift: 0, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := func() *nn.Network {
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(100, 10, xrand.Derive(24, "init", 0)))
	}
	return Config{
		Model:      model,
		ClientData: shards,
		TestData:   test,
		Epochs:     3,
		Batch:      4,
		LR:         core.Constant(0.15),
		Rounds:     30,
		Seed:       25,
	}
}

func TestVanillaConverges(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, false)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.8 {
		t.Fatalf("vanilla FL accuracy = %v, want >= 0.8", acc)
	}
	last := res.History[len(res.History)-1]
	if last.CumUploads != 5*len(res.History) {
		t.Fatalf("vanilla uploads = %d, want %d (all clients every round)", last.CumUploads, 5*len(res.History))
	}
	if last.Skipped != 0 {
		t.Fatalf("vanilla skipped %d updates", last.Skipped)
	}
}

func TestCMFLSkipsAndStillLearns(t *testing.T) {
	cfg := digitLogisticConfig(t, 10, true)
	cfg.Rounds = 30
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	total := 10 * len(res.History)
	if last.CumUploads >= total {
		t.Fatalf("CMFL uploaded everything (%d of %d); filter had no effect", last.CumUploads, total)
	}
	if acc := res.FinalAccuracy(); acc < 0.6 {
		t.Fatalf("CMFL accuracy = %v, want >= 0.6", acc)
	}
	skips := 0
	for _, s := range res.SkipCounts {
		skips += s
	}
	if skips != total-last.CumUploads {
		t.Fatalf("skip counts %d inconsistent with uploads %d/%d", skips, last.CumUploads, total)
	}
}

func TestFirstRoundNoFeedbackAllUpload(t *testing.T) {
	cfg := digitLogisticConfig(t, 6, true)
	cfg.Rounds = 1
	cfg.Filter = core.NewFilter(core.Constant(0.99))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[0].Uploaded != 6 {
		t.Fatalf("round 1 uploads = %d, want all 6 (no feedback yet)", res.History[0].Uploaded)
	}
	if !math.IsNaN(res.History[0].MeanRelevance) {
		t.Fatalf("round 1 relevance should be NaN, got %v", res.History[0].MeanRelevance)
	}
}

func TestGaiaFilterRuns(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, true)
	cfg.Filter = gaia.NewFilter(core.Constant(1e9)) // absurd threshold: skip all after round semantics
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	if last.CumUploads != 0 {
		t.Fatalf("with an enormous Gaia threshold nothing should upload, got %d", last.CumUploads)
	}
	// Model never moved: accuracy equals the untrained model's.
	if res.FilterName != "gaia" {
		t.Fatalf("FilterName = %q, want gaia", res.FilterName)
	}
}

// TestDeterministicAcrossParallelism pins Run with every option it has on
// (fraction sampling, top-k with error feedback, DP, prox, server
// momentum, stale feedback) at one worker, three, and one per client:
// the final model, every client's last local model, the skip counts and the
// per-round communication record hash to one SHA-256. The diagnostics are
// left out: only their last ulp may depend on how they are summed.
func TestDeterministicAcrossParallelism(t *testing.T) {
	const clients = 6
	for _, workers := range []int{1, 3, clients} {
		cfg := digitLogisticConfig(t, clients, true)
		cfg.Rounds = 6
		cfg.Parallelism = workers
		cfg.Filter = core.NewFilter(core.Constant(0.5))
		cfg.ClientFraction = 0.5
		cfg.Compressor = compress.TopK{K: 50}
		cfg.ErrorFeedback = true
		cfg.DPClip, cfg.DPNoiseSigma = 5, 0.001
		cfg.ProxMu = 0.1
		cfg.ServerMomentum = 0.5
		cfg.FeedbackStaleness = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		put := func(u uint64) {
			binary.LittleEndian.PutUint64(b[:], u)
			h.Write(b[:])
		}
		for _, row := range append([][]float64{res.FinalParams}, res.ClientParams...) {
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
		for _, s := range res.SkipCounts {
			put(uint64(s))
		}
		for _, st := range res.History {
			put(uint64(st.Uploaded))
			put(uint64(st.Skipped))
			put(uint64(st.CumUplinkBytes))
		}
		// The vector kernels fuse the multiply-adds and the portable loops do
		// not, so each path has its own bits.
		const wantSIMD, wantPortable = "152446877c4bd5bca273cfe8e390429943d3aacab6b7fd1fa472d8c7653cd02a",
			"2c024f337cea46604c46f8bfb5e9de04a0130c9e604c2118ead9728da7067336"
		if got := hex.EncodeToString(h.Sum(nil)); got != wantSIMD && got != wantPortable {
			t.Errorf("Parallelism %d: SHA-256 %s, want %s (AVX-512) or %s (portable)", workers, got, wantSIMD, wantPortable)
		}
	}
}

func TestEarlyStopOnTargetAccuracy(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, false)
	cfg.Rounds = 50
	cfg.TargetAccuracy = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 50 {
		t.Fatalf("run did not stop early despite target accuracy")
	}
	if res.FinalAccuracy() < 0.5 {
		t.Fatalf("stopped at accuracy %v below target", res.FinalAccuracy())
	}
}

func TestUplinkByteAccounting(t *testing.T) {
	cfg := digitLogisticConfig(t, 4, true)
	cfg.Rounds = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(res.FinalParams)
	want := int64(res.History[len(res.History)-1].CumUploads) * int64(dim) * 8
	if got := res.History[len(res.History)-1].CumUplinkBytes; got != want {
		t.Fatalf("vanilla uplink bytes = %d, want %d", got, want)
	}

	// With a filter, skipped clients cost SkipNotificationBytes each.
	cfg = digitLogisticConfig(t, 4, true)
	cfg.Rounds = 5
	cfg.Filter = core.NewFilter(core.Constant(0.7))
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	skipped := 4*len(res.History) - last.CumUploads
	want = int64(last.CumUploads)*int64(dim)*8 + int64(skipped)*SkipNotificationBytes
	if last.CumUplinkBytes != want {
		t.Fatalf("filtered uplink bytes = %d, want %d", last.CumUplinkBytes, want)
	}
}

func TestHistoryTracesPopulated(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, true)
	cfg.Rounds = 6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.History {
		if h.Round != i+1 {
			t.Fatalf("round numbering broken at %d", i)
		}
		if h.MeanSignificance <= 0 {
			t.Fatalf("round %d significance = %v, want > 0", h.Round, h.MeanSignificance)
		}
		if h.TrainLoss <= 0 {
			t.Fatalf("round %d train loss = %v, want > 0", h.Round, h.TrainLoss)
		}
		if i >= 1 && math.IsNaN(h.MeanRelevance) {
			t.Fatalf("round %d relevance missing", h.Round)
		}
		if i >= 1 && math.IsNaN(h.DeltaUpdate) {
			t.Fatalf("round %d delta-update missing", h.Round)
		}
	}
}

func TestClientParamsRecorded(t *testing.T) {
	cfg := digitLogisticConfig(t, 4, true)
	cfg.Rounds = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClientParams) != 4 {
		t.Fatalf("ClientParams holds %d clients, want 4", len(res.ClientParams))
	}
	for c, p := range res.ClientParams {
		if len(p) != len(res.FinalParams) {
			t.Fatalf("client %d params dim %d != global %d", c, len(p), len(res.FinalParams))
		}
	}
}

func TestFeedbackStalenessAblationRuns(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, true)
	cfg.Rounds = 8
	cfg.Filter = core.NewFilter(core.Constant(0.4))
	cfg.FeedbackStaleness = 3
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := digitLogisticConfig(t, 3, false)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil model", func(c *Config) { c.Model = nil }},
		{"no clients", func(c *Config) { c.ClientData = nil }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"zero batch", func(c *Config) { c.Batch = 0 }},
		{"nil lr", func(c *Config) { c.LR = nil }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"empty shard", func(c *Config) { c.ClientData[0] = &dataset.Set{} }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.ClientData = append([]*dataset.Set(nil), base.ClientData...)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestVanillaCheckAlwaysUploads(t *testing.T) {
	var v Vanilla
	d, err := v.Check(nil, nil, nil, 1)
	if err != nil || !d.Upload {
		t.Fatalf("Vanilla.Check = %+v, %v; want upload", d, err)
	}
	if v.Name() != "vanilla" {
		t.Fatalf("Name = %q", v.Name())
	}
}

// TestNonIIDRelevanceLowerThanIID checks the paper's premise: label-sorted
// shards produce less aligned client updates than IID shards.
func TestNonIIDRelevanceLowerThanIID(t *testing.T) {
	run := func(nonIID bool) float64 {
		cfg := digitLogisticConfig(t, 10, nonIID)
		cfg.Rounds = 10
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for _, h := range res.History[1:] {
			if !math.IsNaN(h.MeanRelevance) {
				sum += h.MeanRelevance
				n++
			}
		}
		return sum / float64(n)
	}
	iid := run(false)
	noniid := run(true)
	if noniid >= iid {
		t.Fatalf("non-IID mean relevance %v should be below IID %v", noniid, iid)
	}
}

func TestClientSampling(t *testing.T) {
	cfg := digitLogisticConfig(t, 10, false)
	cfg.Rounds = 8
	cfg.ClientFraction = 0.3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if h.Participants != 3 {
			t.Fatalf("round %d participants = %d, want 3", h.Round, h.Participants)
		}
		if h.Uploaded != 3 {
			t.Fatalf("vanilla sampled round should upload all participants, got %d", h.Uploaded)
		}
	}
	if acc := res.FinalAccuracy(); acc < 0.5 {
		t.Fatalf("sampled training accuracy = %v, want >= 0.5", acc)
	}
}

func TestClientSamplingMinimumOne(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, false)
	cfg.Rounds = 2
	cfg.ClientFraction = 0.01
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[0].Participants != 1 {
		t.Fatalf("participants = %d, want 1", res.History[0].Participants)
	}
}

func TestCompressorReducesBytesAndStillLearns(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, false)
	cfg.Rounds = 15
	cfg.Compressor = compress.Uniform8{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(res.FinalParams)
	last := res.History[len(res.History)-1]
	raw := int64(last.CumUploads) * int64(dim) * 8
	if last.CumUplinkBytes >= raw/4 {
		t.Fatalf("quantized bytes %d should be well under raw %d", last.CumUplinkBytes, raw)
	}
	if acc := res.FinalAccuracy(); acc < 0.7 {
		t.Fatalf("quantized training accuracy = %v, want >= 0.7", acc)
	}
}

func TestCompressorComposesWithCMFL(t *testing.T) {
	cfg := digitLogisticConfig(t, 6, true)
	cfg.Rounds = 10
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	cfg.Compressor = compress.TopK{K: 50}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	// Each upload costs K*12 bytes; skips cost the notification.
	want := int64(last.CumUploads)*50*12 +
		int64(6*len(res.History)-last.CumUploads)*SkipNotificationBytes
	if last.CumUplinkBytes != want {
		t.Fatalf("bytes = %d, want %d", last.CumUplinkBytes, want)
	}
}

func TestAdaptiveFilterConvergesToTargetFraction(t *testing.T) {
	// The start threshold uploads 0.7 of the updates here, inside the 0.6
	// target's band: the 0.9 target is the case that needs the feedback.
	for _, tc := range []struct{ target, lo, hi float64 }{{0.6, 0.4, 0.8}, {0.9, 0.8, 1}} {
		cfg := digitLogisticConfig(t, 10, true)
		cfg.Rounds = 40
		af := core.NewAdaptiveFilter(0.5, tc.target)
		af.Gain = 0.02
		cfg.Filter = af
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Average upload fraction over the last half of training should be
		// in the neighbourhood of the target.
		var sum float64
		n := 0
		for _, h := range res.History[len(res.History)/2:] {
			sum += float64(h.Uploaded) / float64(h.Participants)
			n++
		}
		frac := sum / float64(n)
		if frac < tc.lo || frac > tc.hi {
			t.Fatalf("adaptive upload fraction = %.2f, want near %v", frac, tc.target)
		}
		if res.FilterName != "cmfl-adaptive" {
			t.Fatalf("FilterName = %q", res.FilterName)
		}
	}
}

func TestServerMomentumChangesTrajectoryAndLearns(t *testing.T) {
	base := digitLogisticConfig(t, 5, false)
	base.Rounds = 15
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withM := digitLogisticConfig(t, 5, false)
	withM.Rounds = 15
	withM.ServerMomentum = 0.7
	mres, err := Run(withM)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range plain.FinalParams {
		if plain.FinalParams[j] != mres.FinalParams[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("server momentum had no effect on the trajectory")
	}
	if acc := mres.FinalAccuracy(); acc < 0.7 {
		t.Fatalf("momentum run accuracy = %v, want >= 0.7", acc)
	}
}

func TestServerMomentumSmoothsDeltaUpdate(t *testing.T) {
	mean := func(momentum float64) float64 {
		cfg := digitLogisticConfig(t, 8, true)
		cfg.Rounds = 20
		cfg.ServerMomentum = momentum
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		n := 0
		for _, h := range res.History {
			if !math.IsNaN(h.DeltaUpdate) && !math.IsInf(h.DeltaUpdate, 0) {
				s += h.DeltaUpdate
				n++
			}
		}
		return s / float64(n)
	}
	plain := mean(0)
	smoothed := mean(0.8)
	if smoothed >= plain {
		t.Fatalf("momentum should smooth sequential global updates: ΔUpdate %v vs %v", smoothed, plain)
	}
}

func TestPrivatizeClipsAndNoises(t *testing.T) {
	rng := xrand.New(81)
	delta := []float64{3, 4} // norm 5
	privatize(delta, 1.0, 0, rng)
	if norm := tensor.Norm2(delta); math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 1", norm)
	}
	// Direction preserved by clipping.
	if math.Abs(delta[0]/delta[1]-3.0/4.0) > 1e-12 {
		t.Fatalf("clipping changed direction: %v", delta)
	}
	small := []float64{0.1, 0.1}
	orig := append([]float64(nil), small...)
	privatize(small, 1.0, 0, rng)
	if small[0] != orig[0] || small[1] != orig[1] {
		t.Fatal("clipping must not touch updates inside the bound")
	}
	privatize(small, 0, 0.5, rng)
	if small[0] == orig[0] && small[1] == orig[1] {
		t.Fatal("noise did not perturb the update")
	}
}

func TestDPTrainingStillLearnsWithModestNoise(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, false)
	cfg.Rounds = 25
	cfg.DPClip = 5
	cfg.DPNoiseSigma = 0.001
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.7 {
		t.Fatalf("DP accuracy = %v, want >= 0.7", acc)
	}
}

func TestDPNoiseDegradesRelevance(t *testing.T) {
	mean := func(sigma float64) float64 {
		cfg := digitLogisticConfig(t, 8, true)
		cfg.Rounds = 10
		cfg.DPNoiseSigma = sigma
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		n := 0
		for _, h := range res.History[1:] {
			if !math.IsNaN(h.MeanRelevance) {
				s += h.MeanRelevance
				n++
			}
		}
		return s / float64(n)
	}
	clean := mean(0)
	noisy := mean(1.0) // enormous noise: sign alignment collapses to chance
	if noisy >= clean {
		t.Fatalf("heavy DP noise should reduce relevance: %v vs %v", noisy, clean)
	}
	if math.Abs(noisy-0.5) > 0.05 {
		t.Fatalf("pure-noise relevance should be near 0.5, got %v", noisy)
	}
}

func TestProxTermLimitsClientDrift(t *testing.T) {
	cfg := digitLogisticConfig(t, 6, true)
	cfg.Rounds = 1
	model := cfg.Model()
	start := model.ParamVector()
	norm := func(mu float64) float64 {
		net := cfg.Model()
		delta, _, err := LocalTrainProx(net, cfg.ClientData[0], start, 0.15, 4, 4, mu, ClientStream(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		return tensor.Norm2(delta)
	}
	free := norm(0)
	proxed := norm(5.0)
	if proxed >= free {
		t.Fatalf("proximal term should shrink local drift: %v vs %v", proxed, free)
	}
}

func TestProxTrainingStillLearns(t *testing.T) {
	cfg := digitLogisticConfig(t, 5, true)
	cfg.Rounds = 25
	cfg.ProxMu = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.6 {
		t.Fatalf("FedProx accuracy = %v, want >= 0.6", acc)
	}
}

// TestMeanAggregation: one round over two clients of very different sizes
// moves the model by the plain mean of their raw deltas (Algorithm 1 line 8),
// each reconstructed with LocalTrain from the client's stream.
func TestMeanAggregation(t *testing.T) {
	all, err := dataset.Digits(dataset.DigitsConfig{Samples: 300, ImageSize: 10, Noise: 0.2, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	big := all.Subset(seqIdx(0, 200))
	small := all.Subset(seqIdx(200, 210))
	cfg := Config{
		Model: func() *nn.Network {
			return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(100, 10, xrand.Derive(92, "init", 0)))
		},
		ClientData: []*dataset.Set{big, small},
		TestData:   all,
		Epochs:     1,
		Batch:      8,
		LR:         core.Constant(0.1),
		Rounds:     1,
		Seed:       93,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := cfg.Model().ParamVector()
	d0, _, err := LocalTrain(cfg.Model(), big, start, 0.1, 1, 8, ClientStream(93, 0))
	if err != nil {
		t.Fatal(err)
	}
	d1, _, err := LocalTrain(cfg.Model(), small, start, 0.1, 1, 8, ClientStream(93, 1))
	if err != nil {
		t.Fatal(err)
	}
	for j := range start {
		if want := start[j] + (d0[j]+d1[j])/2; math.Abs(plain.FinalParams[j]-want) > 1e-12 {
			t.Fatalf("mean aggregation wrong at %d", j)
		}
	}
}

// TestFoldIgnoresArrivalOrder pins Algorithm 1 line 8 as an exact sum: the
// same replies added by a worker and folded under any permutation of accepted
// give the same model bits, with and without server momentum. The deltas mix magnitudes so that a sequential float sum would
// round differently under each order.
func TestFoldIgnoresArrivalOrder(t *testing.T) {
	const dim, clients = 257, 7
	rng := xrand.New(1234)
	replies := make([]Reply, clients)
	for i := range replies {
		delta := rng.NormVec(dim, 0, 1)
		for j := range delta {
			delta[j] *= math.Pow(10, float64(rng.Intn(9)-4))
		}
		replies[i] = Reply{Delta: delta, Upload: i != 3, Bytes: 8 * dim}
	}
	orders := [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 0, 5, 1, 6, 2, 4}}
	for _, tc := range []struct {
		name     string
		momentum float64
	}{
		{"plain", 0},
		{"momentum", 0.7},
	} {
		var want []float64
		for _, order := range orders {
			agg := NewAggregator(telemetry.EngineSync, make([]float64, dim), clients, Vanilla{}, nil)
			agg.momentum = tc.momentum
			w := worker{acc: shard.New(0)}
			for round := 1; round <= 2; round++ { // the second round folds onto momentum state
				w.acc.Reset(dim)
				for _, i := range order {
					if replies[i].Upload {
						w.acc.Add(replies[i].Delta)
					}
				}
				if ev, _, err := agg.Fold(round, clients, order, replies, w.acc); err != nil || ev.Uploaded != clients-1 || ev.Skipped != 1 {
					t.Fatalf("%s: round %d uploaded %d skipped %d, %v", tc.name, round, ev.Uploaded, ev.Skipped, err)
				}
			}
			if want == nil {
				want = agg.Params
				continue
			}
			for j := range want {
				if math.Float64bits(agg.Params[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: order %v param %d = %v, order %v gave %v", tc.name, order, j, agg.Params[j], orders[0], want[j])
				}
			}
		}
	}
}

// foldRound is one round for the Aggregator tests: every reply of accepted,
// its upload summed exactly.
func foldRound(agg *Aggregator, t int, accepted []int, replies []Reply) (telemetry.RoundEvent, []float64, error) {
	sum := shard.New(len(agg.Params))
	for _, i := range accepted {
		if replies[i].Upload {
			sum.Add(replies[i].Delta)
		}
	}
	return agg.Fold(t, len(accepted), accepted, replies, sum)
}

// TestFoldRefusesOverflowingSum: two finite uploads whose sum overflows fail
// the round with emu's error, and Fold changes nothing on the way out — not
// the model, the skip counts, the counters or the feedback.
func TestFoldRefusesOverflowingSum(t *testing.T) {
	const dim = 5
	params := []float64{0.5, -1, 2, 0, 3}
	agg := NewAggregator(telemetry.EngineSync, params, 3, Vanilla{}, nil)
	replies := []Reply{
		{Delta: []float64{1, 2, 3, 4, 5}, Upload: true, Bytes: 8 * dim},
		{Delta: []float64{-1, 0, 1, 0, 1}, Upload: true, Bytes: 8 * dim},
		{Bytes: SkipNotificationBytes},
	}
	all := []int{0, 1, 2}
	if _, _, err := foldRound(agg, 1, all, replies); err != nil {
		t.Fatal(err)
	}
	wantParams, wantSkips := slices.Clone(agg.Params), slices.Clone(agg.SkipCounts)
	wantUploads, wantBytes := agg.cumUploads, agg.cumBytes
	wantFeedback := slices.Clone(agg.Begin(2, 0.1).Feedback)

	replies[0].Delta = []float64{0, 0, 1e308, 0, 0}
	replies[1].Delta = []float64{0, 0, 1e308, 0, 0}
	ev, update, err := foldRound(agg, 2, all, replies)
	if !errors.Is(err, shard.ErrNonFinite) || !strings.Contains(err.Error(), "round 2: sum of 2 accepted updates: coordinate 2 = ") {
		t.Fatalf("Fold = %v, %v, %v; want round 2 refused with shard.ErrNonFinite", ev, update, err)
	}
	for j := range wantParams {
		if math.Float64bits(agg.Params[j]) != math.Float64bits(wantParams[j]) {
			t.Fatalf("Params[%d] = %v after the refusal, want %v", j, agg.Params[j], wantParams[j])
		}
	}
	if !slices.Equal(agg.SkipCounts, wantSkips) || agg.cumUploads != wantUploads || agg.cumBytes != wantBytes {
		t.Fatalf("skips %v, uploads %d, bytes %d after the refusal; want %v, %d, %d",
			agg.SkipCounts, agg.cumUploads, agg.cumBytes, wantSkips, wantUploads, wantBytes)
	}
	if got := agg.Begin(3, 0.1).Feedback; !slices.Equal(got, wantFeedback) {
		t.Fatalf("feedback %v after the refusal, want %v", got, wantFeedback)
	}
}

// TestFoldAllocatesNothing: a steady-state Fold rounds into a buffer the
// Aggregator already owns, at any feedback staleness, and the Finish around
// it reuses its record and its sums of loss and relevance.
func TestFoldAllocatesNothing(t *testing.T) {
	const dim, clients = 1000, 4
	rng := xrand.New(5)
	replies := make([]Reply, clients)
	accepted := make([]int, clients)
	sum := shard.New(dim)
	for i := range replies {
		replies[i], accepted[i] = Reply{Upload: i != 2, Bytes: 8 * dim, Loss: 0.3 / float64(i+1), Relevance: 0.7 / float64(i+1)}, i
		if replies[i].Upload {
			sum.Add(rng.NormVec(dim, 0, 0.01))
		}
	}
	for _, staleness := range []int{1, 3} {
		agg := newAggregator(telemetry.EngineSync, make([]float64, dim), clients, Vanilla{}, nil, staleness)
		agg.momentum = 0.5
		round := 0
		history := make([]RoundStats, 0, 64)
		fold := func() {
			round++
			agg.Begin(round, 0.1)
			if _, err := agg.Finish(round, clients, accepted, replies, sum, func(st *RoundStats, _ []float64) { history = append(history, *st) }); err != nil {
				t.Fatal(err)
			}
		}
		for range staleness + 2 { // until every buffer of the ring has been written
			fold()
		}
		if n := testing.AllocsPerRun(20, fold); n != 0 {
			t.Errorf("staleness %d: Finish allocates %v times a round, want 0", staleness, n)
		}
	}
}

// TestFoldFeedbackRing holds the Aggregator's update buffers to the
// staleness rule over eight rounds, one of them fully skipped: Begin's
// feedback is, bit for bit, a copy of the update Fold returned three applied
// rounds earlier (the latest one before there are three, zeros before the
// first), and under momentum each update is μ times the one before plus the
// round's mean. A ring that hands out a buffer still in use fails it.
func TestFoldFeedbackRing(t *testing.T) {
	const dim, clients, staleness = 67, 3, 3
	for _, momentum := range []float64{0, 0.6} {
		agg := newAggregator(telemetry.EngineSync, make([]float64, dim), clients, Vanilla{}, nil, staleness)
		agg.momentum = momentum
		rng := xrand.New(99)
		var applied [][]float64 // a copy of every update Fold returned
		for round := 1; round <= 8; round++ {
			want := make([]float64, dim)
			switch n := len(applied); {
			case n >= staleness:
				want = applied[n-staleness]
			case n > 0:
				want = applied[n-1]
			}
			b := agg.Begin(round, 0.1)
			for j := range want {
				if math.Float64bits(b.Feedback[j]) != math.Float64bits(want[j]) {
					t.Fatalf("momentum %v, round %d: feedback[%d] = %v, want %v (%d updates applied)", momentum, round, j, b.Feedback[j], want[j], len(applied))
				}
			}
			if (b.Signs == nil) != core.AllZero(b.Feedback) {
				t.Fatalf("momentum %v, round %d: signs %v for feedback %v", momentum, round, b.Signs, b.Feedback)
			}
			replies := make([]Reply, clients)
			accepted := []int{0, 1, 2}
			sum := shard.New(dim)
			for i := range replies {
				replies[i] = Reply{Delta: rng.NormVec(dim, 0, 1), Upload: round != 4 && i != round%clients}
				if replies[i].Upload {
					sum.Add(replies[i].Delta)
				}
			}
			_, update, err := agg.Fold(round, clients, accepted, replies, sum)
			if err != nil {
				t.Fatal(err)
			}
			if round == 4 {
				if update != nil {
					t.Fatalf("momentum %v: a fully skipped round returned an update", momentum)
				}
				continue
			}
			mean := sum.Round(nil)
			for j := range mean {
				mean[j] *= 0.5
				if n := len(applied); momentum > 0 && n > 0 {
					mean[j] = momentum*applied[n-1][j] + mean[j]
				}
				if math.Float64bits(update[j]) != math.Float64bits(mean[j]) {
					t.Fatalf("momentum %v, round %d: update[%d] = %v, want %v", momentum, round, j, update[j], mean[j])
				}
			}
			applied = append(applied, slices.Clone(update))
		}
	}
}

// foldOracle is the round's sum as one accumulator takes it: every upload
// added whole, rounded once.
func foldOracle(dim int, accepted []int, replies []Reply) []float64 {
	acc := shard.New(dim)
	for _, i := range accepted {
		if replies[i].Upload {
			acc.Add(replies[i].Delta)
		}
	}
	return acc.Round(nil)
}

// TestWorkerPartialsMatchOneAccumulator holds the loop's fold to a single
// accumulator over every upload, bit for bit: the uploads are dealt onto 1…8
// workers in a scrambled assignment, each worker adds its share on its own
// goroutine, and merge sums the partials — on dimensions around the
// 64-coordinate bitmap word, twice over reset accumulators. Some coordinates
// spill (their terms span more than hi and lo hold), and others sum to
// exactly zero, by cancellation or from −0 terms alone, which must round to
// +0. Run with -race: the workers add concurrently.
func TestWorkerPartialsMatchOneAccumulator(t *testing.T) {
	const clients = 6
	negZero := math.Copysign(0, -1)
	for _, dim := range []int{1, 63, 64, 65, 4097, 100100} {
		rng := xrand.New(int64(dim))
		replies := make([]Reply, clients)
		for i := range replies {
			replies[i] = Reply{Delta: rng.NormVec(dim, 0, 1), Upload: i != 2}
		}
		d := func(i, j int) *float64 { return &replies[i].Delta[j] }
		var zeros []int
		for j := 0; j < dim; j++ {
			switch j % 64 {
			case 0, 63:
				*d(0, j), *d(1, j), *d(3, j) = 1e300, 1, -1e300
			case 5:
				*d(1, j) = -*d(0, j)
				*d(3, j), *d(4, j), *d(5, j) = 0, 0, 0
				zeros = append(zeros, j)
			case 6:
				for i := range replies {
					*d(i, j) = negZero
				}
				zeros = append(zeros, j)
			}
		}
		accepted := []int{4, 0, 5, 2, 1, 3}
		want := foldOracle(dim, accepted, replies)
		for _, j := range zeros {
			if math.Float64bits(want[j]) != 0 {
				t.Fatalf("dim %d: the oracle rounds zero sum %d to %v", dim, j, want[j])
			}
		}
		for k := 1; k <= 8; k++ {
			workers := make([]worker, k)
			for w := range workers {
				workers[w] = worker{acc: shard.New(0)}
			}
			for round := 0; round < 2; round++ { // the second round reuses the accumulators
				share := make([][]int, k)
				for _, i := range accepted {
					if replies[i].Upload {
						w := rng.Intn(k)
						share[w] = append(share[w], i)
					}
				}
				var wg sync.WaitGroup
				for w := range workers {
					workers[w].acc.Reset(dim)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, i := range share[w] {
							workers[w].acc.Add(replies[i].Delta)
						}
					}()
				}
				wg.Wait()
				got := merge(workers).Round(nil)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("dim %d, %d workers: coordinate %d = %v, want %v", dim, k, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// lyingSchedule is Run's full participation with one broken verdict: client
// 1's reply in round 2. With drop, Packed predicts it accepted and Accept
// drops it; without, Packed predicts it rejected and Accept takes it.
type lyingSchedule struct {
	n        int
	drop     bool
	resident bool // Accept saw a reply still holding its delta
}

func (s *lyingSchedule) Participants(int) []int { return seqIdx(0, s.n) }

func (s *lyingSchedule) Packed(t, c int, _ *Reply) bool { return s.drop || t != 2 || c != 1 }

func (s *lyingSchedule) Accept(t int, trained []int, replies []Reply) ([]int, error) {
	for _, c := range trained {
		s.resident = s.resident || replies[c].Delta != nil
	}
	if s.drop && t == 2 {
		return slices.DeleteFunc(slices.Clone(trained), func(c int) bool { return c == 1 }), nil
	}
	return trained, nil
}

// TestScheduleMustKeepPackedVerdicts: the workers fold what Packed accepts
// and keep no delta, so an Accept that disagrees with Packed in either
// direction must fail the run, naming the round and the client, rather than
// return a Result that folded the wrong set. Before the lie, Accept sees no
// reply holding a delta.
func TestScheduleMustKeepPackedVerdicts(t *testing.T) {
	for _, drop := range []bool{true, false} {
		cfg := digitLogisticConfig(t, 4, false)
		cfg.Rounds = 3
		streams := make([]*xrand.Stream, len(cfg.ClientData))
		for c := range streams {
			streams[c] = ClientStream(cfg.Seed, c)
		}
		s := &lyingSchedule{n: len(streams), drop: drop}
		res, err := RunSchedule(cfg, telemetry.EngineSync, s, streams)
		if err == nil || res != nil {
			t.Fatalf("drop=%v: RunSchedule returned %v, %v; want an error and no Result", drop, res, err)
		}
		if !strings.Contains(err.Error(), "round 2 client 1:") {
			t.Fatalf("drop=%v: error %q does not name round 2 client 1", drop, err)
		}
		if s.resident {
			t.Fatalf("drop=%v: Accept saw a reply still holding its delta", drop)
		}
	}
}

func seqIdx(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestProgressObserver(t *testing.T) {
	cfg := digitLogisticConfig(t, 3, false)
	cfg.Rounds = 4
	var rounds []int
	cfg.Observers = []telemetry.Observer{
		telemetry.Funcs{Round: func(e telemetry.RoundEvent) { rounds = append(rounds, e.Round) }},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 || rounds[0] != 1 || rounds[3] != 4 {
		t.Fatalf("round observer rounds = %v", rounds)
	}
}
