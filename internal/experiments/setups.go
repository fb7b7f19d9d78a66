// Package experiments maps every table and figure of the paper's evaluation
// onto runnable experiment functions. The cmd/ binaries and the top-level
// benchmarks are thin wrappers around this package, so each figure has
// exactly one implementation.
//
// Every setup comes in two presets: Quick (seconds on a laptop; the default
// for tests and benches) and Paper (the paper's client counts and round
// budgets; minutes to hours). Absolute accuracies differ from the paper —
// the substrate is a from-scratch trainer on synthetic data — but the
// comparative shape (CMFL ≫ Gaia > vanilla in communication saving) is the
// reproduction target; see EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/stats"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

// Training is the federated-training block both simulation workloads
// share: the local SGD schedule, the two gates' thresholds, the round
// budget, the Table I targets and the seed. Each setup embeds one, so its
// fields read as the setup's own (mn.Rounds, nw.Seed).
type Training struct {
	Epochs int     // E (paper: 4)
	Batch  int     // B (paper: 2)
	Eta0   float64 // η_t = Eta0/√t

	CMFLThreshold float64 // paper-tuned: 0.8 (MNIST) / 0.7 (NWP); quick presets re-tuned by cmfl-tune
	// CMFLDecay applies v_t = CMFLThreshold/√t instead of a constant
	// threshold (the paper's Theorem 1 schedule; the constant variant is
	// what the quick presets tune best).
	CMFLDecay     bool
	GaiaThreshold float64 // paper-tuned: 0.05 (MNIST) / 0.25 (NWP)

	Rounds int
	// AccuracyTargets are the Table I rows (paper: 0.60 and 0.80).
	AccuracyTargets []float64

	Seed        int64
	Parallelism int
}

// Train returns the block itself; through the embedding it is how generic
// code reads and overrides a workload's training.
func (t *Training) Train() *Training { return t }

// FLConfig assembles the engine configuration for a built federation.
func (t *Training) FLConfig(fed *Federation, filter fl.UploadFilter) fl.Config {
	return fl.Config{
		Model:       fed.Model,
		ClientData:  fed.Shards,
		TestData:    fed.Test,
		Epochs:      t.Epochs,
		Batch:       t.Batch,
		LR:          core.InvSqrt{V0: t.Eta0},
		Filter:      filter,
		Rounds:      t.Rounds,
		Seed:        t.Seed,
		Parallelism: t.Parallelism,
	}
}

// Workload is one of the paper's simulation workloads: a named federation
// plus its training block. *MNISTSetup and *NWPSetup implement it.
type Workload interface {
	Name() string
	Build() (*Federation, error)
	Train() *Training
	// Reseed returns a copy drawn from another seed: its data, shards,
	// outliers, model initialisation and client streams all change.
	Reseed(seed int64) Workload
}

// Preset looks up a workload preset: name is mnist, nwp or emu (the
// Fig. 7 cluster's next-word workload), scale is quick or paper.
func Preset(name, scale string) (Workload, error) {
	presets, ok := map[string][2]Workload{
		"mnist": {QuickMNIST(), PaperMNIST()},
		"nwp":   {QuickNWP(), PaperNWP()},
		"emu":   {QuickEmulation(), PaperEmulation()},
	}[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q (want mnist, nwp or emu)", name)
	}
	switch scale {
	case "quick":
		return presets[0], nil
	case "paper":
		return presets[1], nil
	}
	return nil, fmt.Errorf("experiments: unknown scale %q (want quick or paper)", scale)
}

// MNISTSetup describes the digit-CNN federation (paper Sec. V-A workload 1).
type MNISTSetup struct {
	Clients          int
	SamplesPerClient int
	ShardsPerClient  int
	TestSamples      int
	CNN              nn.CNNConfig

	// OutlierClients is the number of clients whose labels are corrupted
	// (fraction OutlierLabelNoise randomised). Real federated populations
	// contain such tangential clients — the paper's Fig. 1 shows per-
	// parameter divergences up to 268 and Fig. 6 traces 84.5% of CMFL's
	// eliminations to 26% of clients — but a clean synthetic generator
	// would not, so the federation builder reintroduces them explicitly.
	OutlierClients    int
	OutlierLabelNoise float64

	Training
}

// QuickMNIST is the seconds-scale preset.
func QuickMNIST() *MNISTSetup {
	return &MNISTSetup{
		Clients:           20,
		SamplesPerClient:  30,
		ShardsPerClient:   2,
		TestSamples:       300,
		CNN:               nn.CNNConfig{ImageSize: 12, Kernel: 3, Conv1: 3, Conv2: 6, Hidden: 24, Classes: 10},
		OutlierClients:    5,
		OutlierLabelNoise: 1.0,
		Training: Training{
			Epochs:          4,
			Batch:           2,
			Eta0:            0.15,
			CMFLThreshold:   0.52,
			GaiaThreshold:   0.05,
			Rounds:          80,
			AccuracyTargets: []float64{0.55, 0.70},
			Seed:            101,
		},
	}
}

// PaperMNIST mirrors the paper's configuration (100 clients × 600 samples,
// 28×28 images, 5×5 kernels, E=4, B=2). Expect a long run.
func PaperMNIST() *MNISTSetup {
	s := QuickMNIST()
	s.Clients = 100
	s.SamplesPerClient = 600
	s.TestSamples = 2000
	s.CNN = nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 8, Conv2: 16, Hidden: 64, Classes: 10}
	s.Epochs = 4
	s.Batch = 2
	s.Rounds = 900
	s.CMFLThreshold = 0.8
	s.AccuracyTargets = []float64{0.60, 0.80}
	s.OutlierClients = 26 // same outlier share the paper measures on HAR
	return s
}

// Name labels the workload in figures and tables.
func (MNISTSetup) Name() string { return "MNIST CNN" }

// Reseed draws the digits, shards, outliers and model from seed.
func (s MNISTSetup) Reseed(seed int64) Workload {
	s.Seed = seed
	return &s
}

// Federation is a materialised federated workload: client shards, a global
// test set, the model factory, and which clients were constructed as
// outliers (ground truth for the divergence analyses).
type Federation struct {
	Shards     []*dataset.Set
	Test       *dataset.Set
	Model      func() *nn.Network
	OutlierIdx []int
}

// Build materialises the shards, test set and model factory.
func (s MNISTSetup) Build() (*Federation, error) {
	all, err := dataset.Digits(dataset.DigitsConfig{
		Samples:   s.Clients * s.SamplesPerClient,
		ImageSize: s.CNN.ImageSize,
		Noise:     0.15,
		MaxShift:  1,
		Seed:      s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: mnist data: %w", err)
	}
	shards, err := dataset.SortedShards(all, s.Clients, s.ShardsPerClient, xrand.Derive(s.Seed, "shards", 0))
	if err != nil {
		return nil, fmt.Errorf("experiments: mnist shards: %w", err)
	}
	outliers := corruptOutliers(shards, s.OutlierClients, s.OutlierLabelNoise, s.CNN.Classes, s.Seed)
	test, err := dataset.Digits(dataset.DigitsConfig{
		Samples:   s.TestSamples,
		ImageSize: s.CNN.ImageSize,
		Noise:     0.15,
		MaxShift:  1,
		Seed:      s.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: mnist test: %w", err)
	}
	cnn := s.CNN
	seed := s.Seed
	model := func() *nn.Network { return nn.NewCNN(cnn, xrand.Derive(seed, "init", 0)) }
	return &Federation{Shards: shards, Test: test, Model: model, OutlierIdx: outliers}, nil
}

// corruptOutliers picks `count` clients deterministically and randomises
// `noise` of their labels. Returns the chosen indices.
func corruptOutliers(shards []*dataset.Set, count int, noise float64, classes int, seed int64) []int {
	if count <= 0 || noise <= 0 {
		return nil
	}
	pick := xrand.Derive(seed, "outlier-pick", 0).Perm(len(shards))[:min(count, len(shards))]
	for _, c := range pick {
		dataset.CorruptLabels(shards[c], noise, classes, xrand.Derive(seed, "outlier-noise", c))
	}
	return pick
}

// NWPSetup describes the next-word-prediction federation (workload 2).
type NWPSetup struct {
	Dialogue dataset.DialogueConfig
	LSTM     nn.LSTMConfig

	// OutlierRoles / OutlierLabelNoise reintroduce tangential clients, as
	// in MNISTSetup.
	OutlierRoles      int
	OutlierLabelNoise float64

	// TestPerRole holds out this many of each role's samples for the
	// global evaluation set.
	TestPerRole int

	Training
}

// QuickNWP is the seconds-scale preset.
func QuickNWP() *NWPSetup {
	dc := dataset.DialogueConfig{
		Roles:           12,
		Vocab:           40,
		Window:          8,
		SamplesPerRole:  48,
		FavoredPerRole:  8,
		FavoredBoost:    6,
		BranchesPerWord: 3,
		Seed:            201,
	}
	return &NWPSetup{
		Dialogue:          dc,
		LSTM:              nn.LSTMConfig{Vocab: dc.Vocab, Embed: 12, Hidden: 20, Layers: 1},
		OutlierRoles:      2,
		OutlierLabelNoise: 1.0,
		TestPerRole:       12,
		Training: Training{
			Epochs:          1,
			Batch:           4,
			Eta0:            1.5,
			CMFLThreshold:   0.5,
			GaiaThreshold:   0.05,
			Rounds:          220,
			AccuracyTargets: []float64{0.22, 0.26},
			Seed:            202,
		},
	}
}

// PaperNWP approaches the paper's configuration (100 roles, 1675-word
// vocabulary, 10-word window, 2×256 LSTM).
func PaperNWP() *NWPSetup {
	s := QuickNWP()
	s.Dialogue.Roles = 100
	s.Dialogue.Vocab = 1675
	s.Dialogue.Window = 10
	s.Dialogue.SamplesPerRole = 66
	s.Dialogue.FavoredPerRole = 150
	s.LSTM = nn.LSTMConfig{Vocab: 1675, Embed: 64, Hidden: 256, Layers: 2}
	s.Epochs = 4
	s.Batch = 2
	s.Rounds = 2000
	s.CMFLThreshold = 0.7
	s.GaiaThreshold = 0.25
	s.AccuracyTargets = []float64{0.60, 0.80}
	s.OutlierRoles = 26
	return s
}

// Name labels the workload in figures and tables.
func (NWPSetup) Name() string { return "NWP LSTM" }

// Reseed draws the model and client streams from seed and the dialogue
// from seed−1, the presets' own pairing, so reseeding a preset at its own
// seed changes nothing.
func (s NWPSetup) Reseed(seed int64) Workload {
	s.Seed = seed
	s.Dialogue.Seed = seed - 1
	return &s
}

// Build materialises the per-role shards, test set and model factory.
func (s NWPSetup) Build() (*Federation, error) {
	d, err := dataset.GenerateDialogue(s.Dialogue)
	if err != nil {
		return nil, fmt.Errorf("experiments: dialogue: %w", err)
	}
	shards := make([]*dataset.Set, len(d.Clients))
	var testParts []*dataset.Set
	for r, set := range d.Clients {
		n := set.Len()
		cut := n - s.TestPerRole // a role too small to spare that many holds out half
		if cut <= 0 {
			cut = n - n/2
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		shards[r] = set.Subset(idx[:cut])
		testParts = append(testParts, set.Subset(idx[cut:]))
	}
	outliers := corruptOutliers(shards, s.OutlierRoles, s.OutlierLabelNoise, s.Dialogue.Vocab, s.Seed)
	test := dataset.Merge(testParts)
	lstm := s.LSTM
	seed := s.Seed
	model := func() *nn.Network { return nn.NewNextWordLSTM(lstm, xrand.Derive(seed, "init", 0)) }
	return &Federation{Shards: shards, Test: test, Model: model, OutlierIdx: outliers}, nil
}

// TraceOf converts any engine history into an accuracy trace. It accepts
// every stats type embedding the shared telemetry.RoundEvent core
// (fl.RoundStats, which mtl keeps as is and emu and sim embed).
func TraceOf[S telemetry.Eventer](history []S) *stats.AccuracyTrace {
	tr := &stats.AccuracyTrace{}
	for _, h := range history {
		e := h.Event()
		tr.CumUploads = append(tr.CumUploads, e.CumUploads)
		tr.Accuracy = append(tr.Accuracy, e.Accuracy)
	}
	return tr
}
