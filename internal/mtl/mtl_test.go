package mtl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
	"cmfl/internal/xrand"
)

func harConfig(t *testing.T, clients, outliers int) (Config, *dataset.HAR) {
	t.Helper()
	har, err := dataset.GenerateHAR(dataset.HARConfig{
		Clients:       clients,
		Outliers:      outliers,
		Features:      40,
		MinSamples:    20,
		MaxSamples:    60,
		ClassSep:      2.5,
		PersonalScale: 0.2,
		OutlierScale:  1.8,
		Seed:          31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Clients: har.Clients,
		Lambda:  0.01,
		LR:      core.Constant(0.05),
		Epochs:  3,
		Batch:   4,
		Rounds:  20,
		Seed:    32,
	}, har
}

func TestMochaLearnsHAR(t *testing.T) {
	cfg, _ := harConfig(t, 12, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.8 {
		t.Fatalf("MOCHA accuracy = %v, want >= 0.8", acc)
	}
	last := res.History[len(res.History)-1]
	if last.CumUploads != 12*len(res.History) {
		t.Fatalf("plain MOCHA must upload everything: %d of %d", last.CumUploads, 12*len(res.History))
	}
	if res.FilterName != "mocha" {
		t.Fatalf("FilterName = %q", res.FilterName)
	}
}

func TestMochaWithCMFLSavesUploads(t *testing.T) {
	cfg, _ := harConfig(t, 12, 3)
	cfg.Rounds = 25
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	total := 12 * len(res.History)
	if last.CumUploads >= total {
		t.Fatalf("CMFL never filtered: %d of %d uploads", last.CumUploads, total)
	}
	if acc := res.FinalAccuracy(); acc < 0.75 {
		t.Fatalf("MOCHA+CMFL accuracy = %v, want >= 0.75", acc)
	}
	if res.FilterName != "mocha+cmfl" {
		t.Fatalf("FilterName = %q", res.FilterName)
	}
}

func TestOutliersSkipMoreOften(t *testing.T) {
	cfg, har := harConfig(t, 16, 4)
	cfg.Rounds = 30
	cfg.Filter = core.NewFilter(core.Constant(0.55))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	isOutlier := map[int]bool{}
	for _, k := range har.OutlierIdx {
		isOutlier[k] = true
	}
	var outlierSkips, normalSkips, outliers, normals float64
	for k, s := range res.SkipCounts {
		if isOutlier[k] {
			outlierSkips += float64(s)
			outliers++
		} else {
			normalSkips += float64(s)
			normals++
		}
	}
	if outliers == 0 || normals == 0 {
		t.Fatal("bad split")
	}
	if outlierSkips/outliers <= normalSkips/normals {
		t.Fatalf("outliers should be filtered more: outlier mean %.2f vs normal mean %.2f",
			outlierSkips/outliers, normalSkips/normals)
	}
}

func TestLearnedOmegaRuns(t *testing.T) {
	cfg, _ := harConfig(t, 8, 2)
	cfg.Rounds = 12
	cfg.Omega = OmegaLearned
	cfg.OmegaEvery = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.7 {
		t.Fatalf("learned-Ω accuracy = %v, want >= 0.7", acc)
	}
}

func TestSemeionTask(t *testing.T) {
	sem, err := dataset.Semeion(dataset.SemeionConfig{Samples: 400, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	clients, err := dataset.SplitClients(sem, 5, 40, 100, xrand.New(34))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clients: clients,
		Lambda:  0.01,
		LR:      core.Constant(0.05),
		Epochs:  3,
		Batch:   4,
		Rounds:  20,
		Seed:    35,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.85 {
		t.Fatalf("Semeion accuracy = %v, want >= 0.85 (0-vs-rest is imbalanced)", acc)
	}
}

func TestEarlyStop(t *testing.T) {
	cfg, _ := harConfig(t, 6, 1)
	cfg.Rounds = 100
	cfg.TargetAccuracy = 0.7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 100 {
		t.Fatal("did not stop early")
	}
}

func TestValidation(t *testing.T) {
	base, _ := harConfig(t, 4, 1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no clients", func(c *Config) { c.Clients = nil }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"zero batch", func(c *Config) { c.Batch = 0 }},
		{"nil lr", func(c *Config) { c.LR = nil }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"negative lambda", func(c *Config) { c.Lambda = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestMeanRegularizedOmegaProperties(t *testing.T) {
	o := meanRegularizedOmega(5)
	// Rows sum to zero: the regulariser penalises deviation from the mean.
	for i := 0; i < 5; i++ {
		var sum float64
		for j := 0; j < 5; j++ {
			sum += o.At(i, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 0", i, sum)
		}
	}
	if math.Abs(o.At(0, 0)-0.8) > 1e-12 {
		t.Fatalf("diagonal = %v, want 0.8", o.At(0, 0))
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	cfg1, _ := harConfig(t, 6, 1)
	cfg1.Rounds = 4
	cfg1.Parallelism = 1
	r1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := harConfig(t, 6, 1)
	cfg2.Rounds = 4
	cfg2.Parallelism = 6
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range r1.Weights {
		for j := range r1.Weights[k] {
			if r1.Weights[k][j] != r2.Weights[k][j] {
				t.Fatalf("parallelism changed task %d weight %d", k, j)
			}
		}
	}
}

func TestTaskAccuraciesReported(t *testing.T) {
	cfg, har := harConfig(t, 8, 2)
	cfg.Rounds = 15
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskAccuracies) != 8 {
		t.Fatalf("task accuracies = %d, want 8", len(res.TaskAccuracies))
	}
	for k, a := range res.TaskAccuracies {
		if math.IsNaN(a) || a < 0 || a > 1 {
			t.Fatalf("task %d accuracy = %v", k, a)
		}
	}
	_ = har
}

// TestMTLPinnedTrace pins four HAR runs bit for bit: Ω mean-regularised and
// learned every 5 rounds, each ungated and under CMFL at 0.55. The hash
// covers the task weights, the skip counts and every round's uploads, uplink
// bytes and accuracy. MeanRelevance stays out: it is a diagnostic that
// feeds nothing else.
func TestMTLPinnedTrace(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	skipped := false
	for _, omega := range []OmegaMode{OmegaMeanRegularized, OmegaLearned} {
		for _, filter := range []fl.UploadFilter{nil, core.NewFilter(core.Constant(0.55))} {
			cfg, _ := harConfig(t, 16, 4)
			cfg.Rounds = 30
			cfg.Omega, cfg.OmegaEvery, cfg.Filter = omega, 5, filter
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range res.Weights {
				for _, v := range w {
					put(math.Float64bits(v))
				}
			}
			for _, s := range res.SkipCounts {
				put(uint64(s))
				skipped = skipped || s > 0
			}
			for _, st := range res.History {
				put(uint64(st.Uploaded))
				put(uint64(st.CumUplinkBytes))
				put(math.Float64bits(st.Accuracy))
			}
		}
	}
	// The vector kernels fuse multiply-adds and the portable loops do not,
	// so each path has its own bits.
	const wantSIMD, wantPortable = "f5357d81071772568ca564acfa2b97e65c1a45cf31050c7114e6c2977ab8de15",
		"55a7a6034047327de168e8193abb37a300c66f93b19cf139304ac509c2d18094"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSIMD && got != wantPortable {
		t.Errorf("mtl runs SHA-256 %s, want %s (AVX-512) or %s (portable)", got, wantSIMD, wantPortable)
	}
	if !skipped {
		t.Error("the gate withheld nothing: the pin does not cover a skip")
	}
}

// TestMTLAdaptiveGateAdapts: every round reports its upload count to the
// filter, so an AdaptiveFilter steers the tasks' upload fraction to its
// target from either side. A gate that is never told stays at its start
// threshold and uploads one fraction whatever the target.
func TestMTLAdaptiveGateAdapts(t *testing.T) {
	for _, target := range []float64{0.3, 0.9} {
		cfg, _ := harConfig(t, 16, 4)
		cfg.Rounds = 40
		cfg.Filter = core.NewAdaptiveFilter(0.5, target)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.History)
		uploads := res.History[n-1].CumUploads - res.History[n/2-1].CumUploads
		if frac := float64(uploads) / float64(16*(n-n/2)); math.Abs(frac-target) > 0.1 {
			t.Errorf("target %v: second-half upload fraction %.3f, want within 0.1", target, frac)
		}
	}
}

// TestMTLRefusesNonFiniteUpdate: a task whose data holds one +Inf feature
// trains to a non-finite update in round 2, and that round fails instead of
// turning the task's weights to NaN.
func TestMTLRefusesNonFiniteUpdate(t *testing.T) {
	cfg, _ := harConfig(t, 6, 1)
	cfg.InitScale = 0.3
	cfg.Clients[2].X.Data[0] = math.Inf(1)
	_, err := Run(cfg)
	if !errors.Is(err, shard.ErrNonFinite) {
		t.Fatalf("err = %v, want one wrapping shard.ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "round 2:") {
		t.Errorf("err = %q, want it to name round 2", err)
	}
}
