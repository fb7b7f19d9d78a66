// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each figure bench runs the
// full experiment once per iteration at the quick preset and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Paper-scale runs are reachable through
// the cmd/ binaries with -scale paper.
package cmfl_test

import (
	"math"
	"testing"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/experiments"
	"cmfl/internal/fl"
	"cmfl/internal/gaia"
	"cmfl/internal/nn"
	"cmfl/internal/xrand"
)

// BenchmarkFig1ModelDivergence regenerates Fig. 1: the CDF of the
// Normalized Model Divergence (Eq. 7) on both workloads.
func BenchmarkFig1ModelDivergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(&experiments.Runs{}, experiments.QuickMNIST(), experiments.QuickNWP())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-r.MNIST.At(1.0)), "mnist-%d_j>1")
		b.ReportMetric(100*(1-r.NWP.At(1.0)), "nwp-%d_j>1")
		b.ReportMetric(r.MNIST.Max(), "mnist-max-d_j")
		b.ReportMetric(r.NWP.Max(), "nwp-max-d_j")
	}
}

// BenchmarkFig2Measures regenerates Fig. 2: Gaia's significance decays over
// rounds while CMFL's relevance stays stable (late/early ratios).
func BenchmarkFig2Measures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(&experiments.Runs{}, experiments.QuickMNIST())
		if err != nil {
			b.Fatal(err)
		}
		gaiaRatio, cmflRatio := r.StabilityRatios()
		b.ReportMetric(gaiaRatio, "significance-late/early")
		b.ReportMetric(cmflRatio, "relevance-late/early")
	}
}

// BenchmarkFig3DeltaUpdate regenerates Fig. 3: the CDF of the normalized
// difference between sequential global updates (Eq. 8).
func BenchmarkFig3DeltaUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(&experiments.Runs{}, experiments.QuickMNIST(), experiments.QuickNWP())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MNIST.At(0.5), "mnist-%dU<=0.5")
		b.ReportMetric(100*r.NWP.At(0.5), "nwp-%dU<=0.5")
	}
}

// BenchmarkFig4aMNIST regenerates Fig. 4a: accuracy vs accumulated
// communication rounds for vanilla / Gaia / CMFL on the digit CNN.
func BenchmarkFig4aMNIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(&experiments.Runs{}, experiments.QuickMNIST())
		if err != nil {
			b.Fatal(err)
		}
		gs, cs := r.Savings()
		b.ReportMetric(gs[len(gs)-1], "gaia-saving")
		b.ReportMetric(cs[len(cs)-1], "cmfl-saving")
	}
}

// BenchmarkFig4bNWP regenerates Fig. 4b on the next-word LSTM.
func BenchmarkFig4bNWP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(&experiments.Runs{}, experiments.QuickNWP())
		if err != nil {
			b.Fatal(err)
		}
		gs, cs := r.Savings()
		b.ReportMetric(gs[0], "gaia-saving")
		b.ReportMetric(cs[0], "cmfl-saving")
	}
}

// BenchmarkTable1Saving regenerates Table I: savings of Gaia and CMFL over
// vanilla FL at the target accuracies on both workloads.
func BenchmarkTable1Saving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := &experiments.Runs{}
		mn, err := experiments.Fig4(runs, experiments.QuickMNIST())
		if err != nil {
			b.Fatal(err)
		}
		nw, err := experiments.Fig4(runs, experiments.QuickNWP())
		if err != nil {
			b.Fatal(err)
		}
		_, mc := mn.Savings()
		_, nc := nw.Savings()
		b.ReportMetric(mc[0], "cmfl-mnist-lo")
		b.ReportMetric(mc[len(mc)-1], "cmfl-mnist-hi")
		b.ReportMetric(nc[0], "cmfl-nwp-lo")
		b.ReportMetric(nc[len(nc)-1], "cmfl-nwp-hi")
	}
}

// BenchmarkFig5aHAR regenerates Fig. 5a: MOCHA vs MOCHA+CMFL on the HAR
// federation.
func BenchmarkFig5aHAR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.QuickHAR())
		if err != nil {
			b.Fatal(err)
		}
		sv := r.Savings()
		b.ReportMetric(sv[len(sv)-1], "saving")
		b.ReportMetric(r.CMFLBest/r.MochaBest, "accuracy-gain")
	}
}

// BenchmarkFig5bSemeion regenerates Fig. 5b on the Semeion federation.
func BenchmarkFig5bSemeion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.QuickSemeion())
		if err != nil {
			b.Fatal(err)
		}
		sv := r.Savings()
		b.ReportMetric(sv[len(sv)-1], "saving")
		b.ReportMetric(r.CMFLBest/r.MochaBest, "accuracy-gain")
	}
}

// BenchmarkTable2Saving regenerates Table II from both MTL workloads.
func BenchmarkTable2Saving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		har, err := experiments.Fig5(experiments.QuickHAR())
		if err != nil {
			b.Fatal(err)
		}
		sem, err := experiments.Fig5(experiments.QuickSemeion())
		if err != nil {
			b.Fatal(err)
		}
		hs, ss := har.Savings(), sem.Savings()
		b.ReportMetric(hs[0], "har-lo")
		b.ReportMetric(hs[len(hs)-1], "har-hi")
		b.ReportMetric(ss[0], "semeion-lo")
		b.ReportMetric(ss[len(ss)-1], "semeion-hi")
	}
}

// BenchmarkFig6OutlierDivergence regenerates Fig. 6: the divergence split
// between outlier and non-outlier HAR clients, plus how well CMFL's skip
// counts identify the ground-truth outliers.
func BenchmarkFig6OutlierDivergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig5, err := experiments.Fig5(experiments.QuickHAR())
		if err != nil {
			b.Fatal(err)
		}
		r, err := experiments.Fig6(fig5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-r.Outliers.At(1.0)), "outlier-%d_j>1")
		b.ReportMetric(100*(1-r.NonOutliers.At(1.0)), "inlier-%d_j>1")
		b.ReportMetric(float64(r.Overlap)/float64(len(r.SkipIdentified)), "skip-id-hit-rate")
	}
}

// BenchmarkFig7Emulation regenerates Fig. 7: the TCP master–slave cluster
// comparison, reporting the uplink-byte reduction CMFL achieves at the
// middle accuracy target (Fig. 7b) over the real wire.
func BenchmarkFig7Emulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(experiments.QuickEmulation())
		if err != nil {
			b.Fatal(err)
		}
		mid := len(r.Targets) / 2
		if !math.IsNaN(r.VanillaBytes[mid]) && !math.IsNaN(r.CMFLBytes[mid]) && r.CMFLBytes[mid] > 0 {
			b.ReportMetric(r.VanillaBytes[mid]/r.CMFLBytes[mid], "byte-reduction")
		}
		b.ReportMetric(float64(r.VanillaWire)/float64(r.CMFLWire), "wire-reduction")
	}
}

// BenchmarkRelevanceCheckOverhead regenerates the Sec. V-C micro-benchmark:
// the relevance check must cost a negligible fraction of a local training
// iteration (paper: < 0.13%).
func BenchmarkRelevanceCheckOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(experiments.QuickMNIST())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.RelevanceCheck.Nanoseconds()), "check-ns")
		b.ReportMetric(100*float64(r.RelevanceCheck)/float64(r.LocalIteration), "check-%of-iter")
	}
}

// ---- Micro-benchmarks of the core primitives ----

func benchVectors(n int) (u, g []float64) {
	rng := xrand.New(1)
	return rng.NormVec(n, 0, 1), rng.NormVec(n, 0, 1)
}

// benchSink receives benchmark results nobody else reads, so the compiler
// cannot delete the loop that produced them.
var benchSink float64

// BenchmarkRelevanceEq9 measures core.Relevance, the scalar reference form of
// Eq. 9 on two float vectors, at the paper's model sizes. It rotates over 32
// local updates (a single repeated one lets the branch predictor memorise
// its signs) and sinks the result. The path the engines gate on is
// core.SignAgreement: BenchmarkSignsInto and BenchmarkSignAgreement in
// internal/core, which scripts/bench.sh gates.
func BenchmarkRelevanceEq9(b *testing.B) {
	rng := xrand.New(1)
	g := rng.NormVec(100_000, 0, 1)
	us := make([][]float64, 32)
	for i := range us {
		us[i] = rng.NormVec(len(g), 0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := core.Relevance(us[i%len(us)], g)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += rel
	}
}

// BenchmarkGaiaSignificance measures the baseline's magnitude metric.
func BenchmarkGaiaSignificance(b *testing.B) {
	u, g := benchVectors(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gaia.Significance(u, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCosineRelevance measures the ablation metric.
func BenchmarkCosineRelevance(b *testing.B) {
	u, g := benchVectors(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CosineRelevance(u, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalTrainCNN measures one client's local round on the digit CNN.
func BenchmarkLocalTrainCNN(b *testing.B) {
	mn := experiments.QuickMNIST()
	fed, err := mn.Build()
	if err != nil {
		b.Fatal(err)
	}
	net := fed.Model()
	params := net.ParamVector()
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fl.LocalTrain(net, fed.Shards[0], params, 0.1, mn.Epochs, mn.Batch, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMForwardBackward measures one training step of the next-word
// model.
func BenchmarkLSTMForwardBackward(b *testing.B) {
	cfg := nn.LSTMConfig{Vocab: 100, Embed: 16, Hidden: 32, Layers: 2}
	net := nn.NewNextWordLSTM(cfg, xrand.New(3))
	rng := xrand.New(4)
	ids := make([]float64, 8*10)
	for i := range ids {
		ids[i] = float64(rng.Intn(100))
	}
	x := nnTensor(ids, 8, 10)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainBatch(net, x.Clone(), labels, 0.1)
	}
}

// ---- Ablation benches (DESIGN.md §6) ----

// BenchmarkAblationThresholdSchedule compares CMFL with a constant threshold
// against the paper's v0/√t decay on the digit workload.
func BenchmarkAblationThresholdSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		runs := &experiments.Runs{}
		constant, err := experiments.Sweep(runs, mn, "cmfl", []float64{mn.CMFLThreshold}, false)
		if err != nil {
			b.Fatal(err)
		}
		decay, err := experiments.Sweep(runs, mn, "cmfl", []float64{0.8}, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(firstSaving(constant), "constant-saving")
		b.ReportMetric(firstSaving(decay), "decay-saving")
	}
}

// BenchmarkAblationStaleFeedback probes the Eq. 8 smoothness assumption by
// letting clients compare against a 5-round-old global update.
func BenchmarkAblationStaleFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(stale int) float64 {
			cfg := mn.FLConfig(fed, core.NewFilter(core.Constant(mn.CMFLThreshold)))
			cfg.FeedbackStaleness = stale
			res, err := fl.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res.FinalAccuracy()
		}
		b.ReportMetric(run(1), "fresh-accuracy")
		b.ReportMetric(run(5), "stale5-accuracy")
	}
}

// BenchmarkAblationCosineRelevance swaps Eq. 9's sign test for cosine
// similarity.
func BenchmarkAblationCosineRelevance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(useCosine bool, thr float64) float64 {
			f := core.NewFilter(core.Constant(thr))
			f.UseCosine = useCosine
			res, err := fl.Run(mn.FLConfig(fed, f))
			if err != nil {
				b.Fatal(err)
			}
			return res.FinalAccuracy()
		}
		b.ReportMetric(run(false, mn.CMFLThreshold), "sign-accuracy")
		b.ReportMetric(run(true, mn.CMFLThreshold), "cosine-accuracy")
	}
}

// BenchmarkAblationClientScale sweeps the federation size, probing how the
// filter behaves as the client population grows.
func BenchmarkAblationClientScale(b *testing.B) {
	for _, clients := range []int{10, 20, 40} {
		b.Run(benchName("clients", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mn := experiments.QuickMNIST()
				mn.Clients = clients
				mn.OutlierClients = clients / 4
				mn.Rounds = 40
				fed, err := mn.Build()
				if err != nil {
					b.Fatal(err)
				}
				res, err := fl.Run(mn.FLConfig(fed, core.NewFilter(core.Constant(mn.CMFLThreshold))))
				if err != nil {
					b.Fatal(err)
				}
				last := res.History[len(res.History)-1]
				b.ReportMetric(float64(last.CumUploads)/float64(clients*len(res.History)), "upload-fraction")
				b.ReportMetric(res.FinalAccuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkAblationCompression compares CMFL's upload-reduction against the
// related work's bit-reduction (8-bit quantisation, top-k sparsification)
// on the digit workload: uplink bytes needed to reach the first accuracy
// target.
func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		bytesTo := func(filter fl.UploadFilter, codec fl.UpdateCodec) float64 {
			cfg := mn.FLConfig(fed, filter)
			cfg.Compressor = codec
			res, err := fl.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			target := mn.AccuracyTargets[0]
			for _, h := range res.History {
				if !math.IsNaN(h.Accuracy) && h.Accuracy >= target {
					return float64(h.CumUplinkBytes)
				}
			}
			return math.NaN()
		}
		vanilla := bytesTo(nil, nil)
		cmflB := bytesTo(core.NewFilter(core.Constant(mn.CMFLThreshold)), nil)
		quant := bytesTo(nil, compress.Uniform8{})
		topk := bytesTo(nil, compress.TopK{K: 200})
		b.ReportMetric(vanilla/cmflB, "cmfl-byte-saving")
		b.ReportMetric(vanilla/quant, "quantize8-byte-saving")
		b.ReportMetric(vanilla/topk, "top200-byte-saving")
		// CMFL composed with quantisation: the approaches are orthogonal.
		both := bytesTo(core.NewFilter(core.Constant(mn.CMFLThreshold)), compress.Uniform8{})
		b.ReportMetric(vanilla/both, "cmfl+quantize8-byte-saving")
	}
}

// BenchmarkAblationClientSampling composes CMFL with FedAvg's partial
// participation (C = 0.5).
func BenchmarkAblationClientSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(fraction float64) (acc, uploads float64) {
			cfg := mn.FLConfig(fed, core.NewFilter(core.Constant(mn.CMFLThreshold)))
			cfg.ClientFraction = fraction
			res, err := fl.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			last := res.History[len(res.History)-1]
			return res.FinalAccuracy(), float64(last.CumUploads)
		}
		fullAcc, fullUp := run(1)
		halfAcc, halfUp := run(0.5)
		b.ReportMetric(fullAcc, "full-accuracy")
		b.ReportMetric(halfAcc, "sampled-accuracy")
		b.ReportMetric(fullUp/halfUp, "upload-ratio")
	}
}

// BenchmarkAblationAdaptiveThreshold compares the hand-tuned constant
// threshold against the self-tuning AdaptiveFilter extension.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(filter fl.UploadFilter) (acc, frac float64) {
			res, err := fl.Run(mn.FLConfig(fed, filter))
			if err != nil {
				b.Fatal(err)
			}
			last := res.History[len(res.History)-1]
			return res.FinalAccuracy(),
				float64(last.CumUploads) / float64(len(fed.Shards)*len(res.History))
		}
		tunedAcc, tunedFrac := run(core.NewFilter(core.Constant(mn.CMFLThreshold)))
		adaptAcc, adaptFrac := run(core.NewAdaptiveFilter(0.5, tunedFrac))
		b.ReportMetric(tunedAcc, "tuned-accuracy")
		b.ReportMetric(adaptAcc, "adaptive-accuracy")
		b.ReportMetric(tunedFrac, "tuned-upload-frac")
		b.ReportMetric(adaptFrac, "adaptive-upload-frac")
	}
}

// BenchmarkAblationServerMomentum probes FedAvgM-style server momentum and
// documents a real interaction: under vanilla FL momentum is benign, but
// combined with the CMFL gate it destabilises training — the momentum
// velocity becomes the feedback, the gate then only admits updates aligned
// with that (increasingly stale) direction, and the loop self-reinforces.
func BenchmarkAblationServerMomentum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(momentum float64, filter fl.UploadFilter) float64 {
			cfg := mn.FLConfig(fed, filter)
			cfg.ServerMomentum = momentum
			// Momentum amplifies the effective step by ~1/(1-μ); rescale
			// the learning rate so the comparison is step-size-fair.
			cfg.LR = core.InvSqrt{V0: mn.Eta0 * (1 - momentum)}
			res, err := fl.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res.FinalAccuracy()
		}
		cmflFilter := core.NewFilter(core.Constant(mn.CMFLThreshold))
		b.ReportMetric(run(0, nil), "vanilla-accuracy")
		b.ReportMetric(run(0.5, nil), "vanilla+momentum-accuracy")
		b.ReportMetric(run(0, cmflFilter), "cmfl-accuracy")
		b.ReportMetric(run(0.3, cmflFilter), "cmfl+momentum-accuracy")
	}
}

// BenchmarkAblationAsync ports CMFL to the asynchronous extension: vanilla
// async vs async+CMFL under the adaptive controller, upload share and
// accuracy under stragglers.
func BenchmarkAblationAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(filter fl.UploadFilter) (acc float64, uploads int, stale float64) {
			res, err := fl.RunAsync(fl.AsyncConfig{
				Model:      fed.Model,
				ClientData: fed.Shards,
				TestData:   fed.Test,
				Epochs:     mn.Epochs,
				Batch:      mn.Batch,
				LR:         core.InvSqrt{V0: mn.Eta0},
				Filter:     filter,
				Updates:    len(fed.Shards) * 40,
				Seed:       mn.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			last := res.Events[len(res.Events)-1]
			return res.FinalAccuracy(), last.CumUploads, res.MeanStaleness
		}
		vAcc, vUp, vStale := run(nil)
		// Every completion reports its upload to the controller, which
		// steers the upload fraction to its 0.7 target.
		aAcc, aUp, _ := run(core.NewAdaptiveFilter(0.45, 0.7))
		b.ReportMetric(vAcc, "vanilla-accuracy")
		b.ReportMetric(aAcc, "cmfl-adaptive-accuracy")
		b.ReportMetric(float64(vUp)/float64(aUp), "upload-reduction")
		b.ReportMetric(vStale, "mean-staleness")
	}
}

// BenchmarkAblationWriterHeterogeneity swaps the paper's label-shard
// non-IIDness for feature-level writer styles (FEMNIST-like): CMFL's skip
// counts should concentrate on the extreme-style writers with no label
// corruption at all.
func BenchmarkAblationWriterHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := dataset.DefaultWriterDigitsConfig()
		clients, extreme, err := dataset.WriterDigits(cfg)
		if err != nil {
			b.Fatal(err)
		}
		test, err := dataset.Digits(dataset.DigitsConfig{
			Samples: 300, ImageSize: cfg.ImageSize, Noise: 0.15, MaxShift: 1, Seed: cfg.Seed + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := fl.Run(fl.Config{
			Model: func() *nn.Network {
				return nn.NewCNN(nn.CNNConfig{
					ImageSize: cfg.ImageSize, Kernel: 3, Conv1: 3, Conv2: 6, Hidden: 24, Classes: 10,
				}, xrand.Derive(cfg.Seed, "init", 0))
			},
			ClientData: clients,
			TestData:   test,
			Epochs:     2,
			Batch:      4,
			LR:         core.InvSqrt{V0: 0.15},
			Filter:     core.NewFilter(core.Constant(0.5)),
			Rounds:     40,
			Seed:       cfg.Seed + 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		isExtreme := map[int]bool{}
		for _, c := range extreme {
			isExtreme[c] = true
		}
		var extSkips, normSkips float64
		for c, s := range res.SkipCounts {
			if isExtreme[c] {
				extSkips += float64(s) / float64(len(extreme))
			} else {
				normSkips += float64(s) / float64(cfg.Clients-len(extreme))
			}
		}
		b.ReportMetric(extSkips, "extreme-writer-mean-skips")
		b.ReportMetric(normSkips, "normal-writer-mean-skips")
		b.ReportMetric(res.FinalAccuracy(), "accuracy")
	}
}

// BenchmarkAblationFedProx composes CMFL with FedProx's proximal term:
// limiting client drift raises update alignment, which changes what the
// relevance gate filters.
func BenchmarkAblationFedProx(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mn := experiments.QuickMNIST()
		fed, err := mn.Build()
		if err != nil {
			b.Fatal(err)
		}
		run := func(mu float64) (acc, rel float64) {
			cfg := mn.FLConfig(fed, core.NewFilter(core.Constant(mn.CMFLThreshold)))
			cfg.ProxMu = mu
			res, err := fl.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var s float64
			n := 0
			for _, h := range res.History[1:] {
				if !math.IsNaN(h.MeanRelevance) {
					s += h.MeanRelevance
					n++
				}
			}
			return res.FinalAccuracy(), s / float64(n)
		}
		fedavgAcc, fedavgRel := run(0)
		proxAcc, proxRel := run(0.1)
		b.ReportMetric(fedavgAcc, "fedavg-accuracy")
		b.ReportMetric(proxAcc, "fedprox-accuracy")
		b.ReportMetric(fedavgRel, "fedavg-relevance")
		b.ReportMetric(proxRel, "fedprox-relevance")
	}
}
