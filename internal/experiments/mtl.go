package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/mtl"
	"cmfl/internal/report"
	"cmfl/internal/stats"
	"cmfl/internal/xrand"
)

// MTLSetup describes one federated multi-task workload (Sec. V-B).
type MTLSetup struct {
	Name string
	// Build materialises the per-task shards (and, for HAR, the ground-
	// truth outlier indices).
	HAR     *dataset.HARConfig
	Semeion *SemeionSplit

	Lambda        float64
	InitScale     float64 // random task-weight initialisation stddev
	LR            float64 // constant, paper: 1e-4
	Epochs        int     // paper: 10
	Batch         int     // paper: 3
	Rounds        int
	CMFLThreshold float64 // paper-tuned: 0.75 (HAR) / 0.2 (Semeion); quick presets re-tuned

	// OutlierTasks / OutlierLabelNoise corrupt some tasks' labels so their
	// updates are tangential to the collaborative trend, reintroducing the
	// outlier population the paper traces in Fig. 6 (for HAR the corrupted
	// tasks coincide with the generator's deviant-direction clients).
	OutlierTasks      int
	OutlierLabelNoise float64

	AccuracyTargets []float64
	Seed            int64
}

// SemeionSplit configures the Semeion federation (15 clients, 10-200
// samples each in the paper).
type SemeionSplit struct {
	Samples    int
	Clients    int
	MinPerTask int
	MaxPerTask int
	// FlipProb is per-pixel binary noise controlling task difficulty.
	FlipProb float64
}

// QuickHAR is the seconds-scale HAR preset.
func QuickHAR() MTLSetup {
	cfg := dataset.HARConfig{
		Clients:       30,
		Outliers:      8,
		Features:      80,
		MinSamples:    15,
		MaxSamples:    60,
		ClassSep:      1.0,
		PersonalScale: 0.2,
		OutlierScale:  1.6,
		Seed:          301,
	}
	return MTLSetup{
		Name:              "HAR",
		HAR:               &cfg,
		Lambda:            0.02,
		LR:                0.004,
		Epochs:            1,
		Batch:             4,
		Rounds:            120,
		CMFLThreshold:     0.45,
		OutlierTasks:      8,
		OutlierLabelNoise: 1.0,
		AccuracyTargets:   []float64{0.62, 0.66},
		Seed:              302,
	}
}

// PaperHAR mirrors the paper's 142-client, 561-feature HAR setup.
func PaperHAR() MTLSetup {
	s := QuickHAR()
	cfg := dataset.DefaultHARConfig()
	s.HAR = &cfg
	s.Epochs = 10
	s.Batch = 3
	s.LR = 0.0001
	s.Rounds = 300
	s.CMFLThreshold = 0.75
	s.AccuracyTargets = []float64{0.85, 0.91}
	return s
}

// QuickSemeion is the seconds-scale Semeion preset.
func QuickSemeion() MTLSetup {
	return MTLSetup{
		Name:              "Semeion",
		Semeion:           &SemeionSplit{Samples: 600, Clients: 10, MinPerTask: 30, MaxPerTask: 100, FlipProb: 0.30},
		Lambda:            0.02,
		InitScale:         0.5,
		LR:                0.01,
		Epochs:            1,
		Batch:             4,
		Rounds:            150,
		CMFLThreshold:     0.55,
		OutlierTasks:      3,
		OutlierLabelNoise: 1.0,
		AccuracyTargets:   []float64{0.69, 0.70},
		Seed:              303,
	}
}

// PaperSemeion mirrors the paper's 15-client, 1593-sample Semeion setup.
func PaperSemeion() MTLSetup {
	s := QuickSemeion()
	s.Semeion = &SemeionSplit{Samples: 1593, Clients: 15, MinPerTask: 10, MaxPerTask: 200}
	s.Epochs = 10
	s.Batch = 3
	s.LR = 0.0001
	s.Rounds = 300
	s.CMFLThreshold = 0.2
	s.AccuracyTargets = []float64{0.75, 0.84}
	return s
}

// Build materialises the task shards and the outlier ground truth.
func (s MTLSetup) Build() (clients []*dataset.Set, outliers []int, err error) {
	switch {
	case s.HAR != nil:
		har, err := dataset.GenerateHAR(*s.HAR)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: har: %w", err)
		}
		// The corrupted tasks coincide with the generator's deviant-
		// direction clients, compounding both outlier mechanisms.
		outliers = har.OutlierIdx[:min(s.OutlierTasks, len(har.OutlierIdx))]
		for _, k := range outliers {
			dataset.CorruptLabels(har.Clients[k], s.OutlierLabelNoise, 2, xrand.Derive(s.Seed, "mtl-outlier", k))
		}
		return har.Clients, outliers, nil
	case s.Semeion != nil:
		sem, err := dataset.Semeion(dataset.SemeionConfig{Samples: s.Semeion.Samples, FlipProb: s.Semeion.FlipProb, Seed: s.Seed})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: semeion: %w", err)
		}
		clients, err := dataset.SplitClients(sem, s.Semeion.Clients, s.Semeion.MinPerTask, s.Semeion.MaxPerTask, xrand.Derive(s.Seed, "semeion-split", 0))
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: semeion split: %w", err)
		}
		pick := xrand.Derive(s.Seed, "mtl-outlier-pick", 0).Perm(len(clients))
		for i := 0; i < s.OutlierTasks && i < len(clients); i++ {
			k := pick[i]
			dataset.CorruptLabels(clients[k], s.OutlierLabelNoise, 2, xrand.Derive(s.Seed, "mtl-outlier", k))
			outliers = append(outliers, k)
		}
		return clients, outliers, nil
	default:
		return nil, nil, fmt.Errorf("experiments: MTL setup %q has no workload", s.Name)
	}
}

func (s MTLSetup) mtlConfig(clients []*dataset.Set, filter fl.UploadFilter) mtl.Config {
	return mtl.Config{
		Clients:   clients,
		Lambda:    s.Lambda,
		InitScale: s.InitScale,
		LR:        core.Constant(s.LR),
		Epochs:    s.Epochs,
		Batch:     s.Batch,
		Rounds:    s.Rounds,
		Filter:    filter,
		Seed:      s.Seed,
	}
}

// Fig5Result compares plain MOCHA against MOCHA+CMFL on one dataset.
type Fig5Result struct {
	Workload string
	Mocha    AlgorithmTrace
	WithCMFL AlgorithmTrace
	Targets  []float64
	// Accuracy gain the paper highlights: best accuracy with CMFL divided
	// by best accuracy without.
	MochaBest, CMFLBest float64
	// Run results retained for Fig. 6's outlier analysis.
	MochaRun, CMFLRun *mtl.Result
	OutlierIdx        []int
}

// Fig5 runs the multi-task comparison on the given setup.
func Fig5(s MTLSetup) (*Fig5Result, error) {
	clients, outliers, err := s.Build()
	if err != nil {
		return nil, err
	}
	plain, err := mtl.Run(s.mtlConfig(clients, nil))
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5 %s mocha: %w", s.Name, err)
	}
	withCMFL, err := mtl.Run(s.mtlConfig(clients, core.NewFilter(core.Constant(s.CMFLThreshold))))
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5 %s mocha+cmfl: %w", s.Name, err)
	}
	plainTrace, cmflTrace := TraceOf(plain.History), TraceOf(withCMFL.History)
	return &Fig5Result{
		Workload:   s.Name,
		Mocha:      AlgorithmTrace{Name: "mocha", Trace: plainTrace},
		WithCMFL:   AlgorithmTrace{Name: "mocha+cmfl", Trace: cmflTrace},
		Targets:    s.AccuracyTargets,
		MochaBest:  plainTrace.BestAccuracy(),
		CMFLBest:   cmflTrace.BestAccuracy(),
		MochaRun:   plain,
		CMFLRun:    withCMFL,
		OutlierIdx: outliers,
	}, nil
}

// Savings returns the Table II savings per target.
func (r *Fig5Result) Savings() []float64 {
	return savingsAt(r.Mocha.Trace, r.WithCMFL.Trace, r.Targets)
}

// savingsRows are this workload's Table II rows.
func (r *Fig5Result) savingsRows() [][]string {
	sv := r.Savings()
	rows := make([][]string, len(r.Targets))
	for i, target := range r.Targets {
		rows[i] = []string{fmt.Sprintf("%s %.0f%% accuracy", r.Workload, 100*target), fmtSaving(sv[i])}
	}
	return rows
}

// Render plots the comparison and prints the savings and accuracy gain.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — %s: MOCHA vs MOCHA+CMFL\n", r.Workload)
	b.WriteString(report.Plot("accuracy vs uploads", 64, 14, r.Mocha.series(), r.WithCMFL.series()))
	b.WriteString(report.Table([]string{"target", "MOCHA+CMFL saving"}, r.savingsRows()))
	fmt.Fprintf(&b, "best accuracy: mocha %.4f, mocha+cmfl %.4f (%.2fx)\n",
		r.MochaBest, r.CMFLBest, r.CMFLBest/r.MochaBest)
	return b.String()
}

// Table2Render combines both MTL workloads into the paper's Table II.
func Table2Render(har, semeion *Fig5Result) string {
	return "Table II — saving of MOCHA+CMFL over plain MOCHA\n" +
		report.Table([]string{"target", "MOCHA with CMFL"}, append(har.savingsRows(), semeion.savingsRows()...))
}

// Fig6Result splits the per-parameter model divergence by outlier status.
type Fig6Result struct {
	Outliers    *stats.CDF
	NonOutliers *stats.CDF
	// SkipIdentified is the set of clients CMFL filtered most often (same
	// count as the ground-truth outliers), and Overlap is how many of them
	// are true outliers.
	SkipIdentified []int
	Overlap        int
}

// Fig6 analyses the HAR run: it computes Eq. 7 divergence of each task's
// final weights against the mean task model, split into the ground-truth
// outlier and non-outlier populations, and checks that CMFL's skip counts
// identify the same clients.
func Fig6(r *Fig5Result) (*Fig6Result, error) {
	if len(r.OutlierIdx) == 0 {
		return nil, fmt.Errorf("experiments: fig6 needs a workload with outlier ground truth")
	}
	// Divergence is measured on the plain run (everyone's model trained),
	// while the skip identification uses the CMFL run's filter decisions.
	run := r.MochaRun
	m := len(run.Weights)
	dim := len(run.Weights[0])
	mean := make([]float64, dim)
	for _, w := range run.Weights {
		for j, v := range w {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(m)
	}
	isOutlier := make(map[int]bool, len(r.OutlierIdx))
	for _, k := range r.OutlierIdx {
		isOutlier[k] = true
	}
	var outW, inW [][]float64
	for k, w := range run.Weights {
		if isOutlier[k] {
			outW = append(outW, w)
		} else {
			inW = append(inW, w)
		}
	}
	outDiv, err := stats.NormalizedModelDivergence(outW, mean)
	if err != nil {
		return nil, err
	}
	inDiv, err := stats.NormalizedModelDivergence(inW, mean)
	if err != nil {
		return nil, err
	}

	// Rank clients by skip count; take the top |outliers|.
	type kc struct{ k, c int }
	ranked := make([]kc, m)
	for k, c := range r.CMFLRun.SkipCounts {
		ranked[k] = kc{k, c}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].k < ranked[j].k
	})
	identified := make([]int, 0, len(r.OutlierIdx))
	overlap := 0
	for i := 0; i < len(r.OutlierIdx) && i < m; i++ {
		identified = append(identified, ranked[i].k)
		if isOutlier[ranked[i].k] {
			overlap++
		}
	}
	return &Fig6Result{
		Outliers:       stats.NewCDF(outDiv),
		NonOutliers:    stats.NewCDF(inDiv),
		SkipIdentified: identified,
		Overlap:        overlap,
	}, nil
}

// Render prints the divergence split and the outlier-identification hit
// rate.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — model divergence of outlier vs non-outlier clients (HAR)\n")
	rows := [][]string{
		{"outliers", fmt.Sprintf("%.1f%%", 100*(1-r.Outliers.At(1.0))), fmt.Sprintf("%.2f", r.Outliers.Quantile(0.5)), fmt.Sprintf("%.2f", r.Outliers.Max())},
		{"non-outliers", fmt.Sprintf("%.1f%%", 100*(1-r.NonOutliers.At(1.0))), fmt.Sprintf("%.2f", r.NonOutliers.Quantile(0.5)), fmt.Sprintf("%.2f", r.NonOutliers.Max())},
	}
	b.WriteString(report.Table([]string{"population", "params with d_j > 100%", "median d_j", "max d_j"}, rows))
	b.WriteString(report.Plot("CDF(d_j) by population", 60, 12, cdfSeries(40, r.Outliers, r.NonOutliers, "outliers", "non-outliers")...))
	fmt.Fprintf(&b, "CMFL's most-skipped clients overlap ground-truth outliers: %d of %d\n",
		r.Overlap, len(r.SkipIdentified))
	return b.String()
}
