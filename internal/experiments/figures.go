package experiments

import (
	"fmt"
	"math"
	"strings"

	"cmfl/internal/report"
	"cmfl/internal/stats"
)

// Fig1Result holds the Normalized Model Divergence CDFs of Fig. 1.
type Fig1Result struct {
	MNIST *stats.CDF
	NWP   *stats.CDF
}

// Fig1 measures, on both workloads' vanilla runs, the per-parameter
// divergence (Eq. 7) between the final local models and the global model.
func Fig1(s *Runs, mn, nw Workload) (*Fig1Result, error) {
	var cdfs [2]*stats.CDF
	for i, w := range []Workload{mn, nw} {
		res, err := s.result(w, vanillaGate)
		if err != nil {
			return nil, err
		}
		div, err := stats.NormalizedModelDivergence(res.ClientParams, res.FinalParams)
		if err != nil {
			return nil, err
		}
		cdfs[i] = stats.NewCDF(div)
	}
	return &Fig1Result{MNIST: cdfs[0], NWP: cdfs[1]}, nil
}

// Render prints the CDFs and the headline statistics the paper quotes
// (fraction of parameters with divergence > 100%, maximum divergence).
func (r *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 1 — CDF of Normalized Model Divergence d_j (Eq. 7)\n")
	rows := [][]string{
		{"MNIST CNN", fmt.Sprintf("%.1f%%", 100*(1-r.MNIST.At(1.0))), fmt.Sprintf("%.2f", r.MNIST.Quantile(0.5)), fmt.Sprintf("%.1f", r.MNIST.Max())},
		{"NWP LSTM", fmt.Sprintf("%.1f%%", 100*(1-r.NWP.At(1.0))), fmt.Sprintf("%.2f", r.NWP.Quantile(0.5)), fmt.Sprintf("%.1f", r.NWP.Max())},
	}
	b.WriteString(report.Table([]string{"model", "params with d_j > 100%", "median d_j", "max d_j"}, rows))
	b.WriteString(report.Plot("CDF(d_j)", 60, 14, cdfSeries(40, r.MNIST, r.NWP, "MNIST CNN", "NWP LSTM")...))
	return b.String()
}

// Fig2Result holds the per-round mean measures of Fig. 2.
type Fig2Result struct {
	Rounds       []float64
	Significance []float64 // Gaia's ‖u‖/‖x‖, expected to decay
	Relevance    []float64 // CMFL's Eq. 9, expected to stay stable
}

// Fig2 reads both candidate measures, every round, off a workload's vanilla
// run (the paper's: the MNIST CNN with 168 clients; scaled presets use
// fewer).
func Fig2(s *Runs, w Workload) (*Fig2Result, error) {
	res, err := s.result(w, vanillaGate)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{}
	for _, h := range res.History {
		out.Rounds = append(out.Rounds, float64(h.Round))
		out.Significance = append(out.Significance, h.MeanSignificance)
		out.Relevance = append(out.Relevance, h.MeanRelevance)
	}
	return out, nil
}

// StabilityRatios summarises the traces: each measure's late-phase mean
// divided by its early-phase mean. Gaia's ratio should be far below 1
// (decay); CMFL's should stay near 1 (stable).
func (r *Fig2Result) StabilityRatios() (gaiaRatio, cmflRatio float64) {
	third := len(r.Rounds) / 3
	if third == 0 {
		return math.NaN(), math.NaN()
	}
	early := func(v []float64) float64 { return stats.Mean(dropNaN(v[:third])) }
	late := func(v []float64) float64 { return stats.Mean(dropNaN(v[len(v)-third:])) }
	return late(r.Significance) / early(r.Significance), late(r.Relevance) / early(r.Relevance)
}

// Render prints both traces and the stability ratios.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 2 — significance (Gaia) vs relevance (CMFL) over iterations\n")
	gr, cr := r.StabilityRatios()
	fmt.Fprintf(&b, "late/early ratio: significance %.3f (decays), relevance %.3f (stable)\n", gr, cr)
	logSig := make([]float64, len(r.Significance))
	for i, v := range r.Significance {
		logSig[i] = math.Log10(math.Max(v, 1e-12))
	}
	b.WriteString(report.Plot("(a) log10 mean ‖u‖/‖x‖ per round", 60, 10,
		report.Series{Name: "significance", X: r.Rounds, Y: logSig}))
	b.WriteString(report.Plot("(b) mean relevance e(u,ū) per round", 60, 10,
		report.Series{Name: "relevance", X: r.Rounds, Y: r.Relevance}))
	return b.String()
}

// Fig3Result holds the ΔUpdate CDFs of Fig. 3.
type Fig3Result struct {
	MNIST *stats.CDF
	NWP   *stats.CDF
}

// Fig3 collects, from both workloads' vanilla runs, the normalized
// difference between sequential global updates (Eq. 8).
func Fig3(s *Runs, mn, nw Workload) (*Fig3Result, error) {
	var cdfs [2]*stats.CDF
	for i, w := range []Workload{mn, nw} {
		res, err := s.result(w, vanillaGate)
		if err != nil {
			return nil, err
		}
		var ds []float64
		for _, h := range res.History {
			if !math.IsNaN(h.DeltaUpdate) && !math.IsInf(h.DeltaUpdate, 0) {
				ds = append(ds, h.DeltaUpdate)
			}
		}
		cdfs[i] = stats.NewCDF(ds)
	}
	return &Fig3Result{MNIST: cdfs[0], NWP: cdfs[1]}, nil
}

// Render prints the ΔUpdate CDFs and the small-difference fractions the
// paper quotes.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 3 — CDF of ΔUpdate between sequential global updates (Eq. 8)\n")
	rows := [][]string{
		{"MNIST CNN", fmt.Sprintf("%.1f%%", 100*r.MNIST.At(0.5)), fmt.Sprintf("%.3f", r.MNIST.Max())},
		{"NWP LSTM", fmt.Sprintf("%.1f%%", 100*r.NWP.At(0.5)), fmt.Sprintf("%.3f", r.NWP.Max())},
	}
	b.WriteString(report.Table([]string{"model", "ΔUpdate <= 0.5", "max ΔUpdate"}, rows))
	b.WriteString(report.Plot("CDF(ΔUpdate)", 60, 14, cdfSeries(40, r.MNIST, r.NWP, "MNIST CNN", "NWP LSTM")...))
	return b.String()
}

// AlgorithmTrace labels one algorithm's accuracy-vs-uploads curve.
type AlgorithmTrace struct {
	Name  string
	Trace *stats.AccuracyTrace
}

// series is the trace's accuracy-vs-uploads plot line.
func (at AlgorithmTrace) series() report.Series {
	uploads := make([]float64, len(at.Trace.CumUploads))
	for i, c := range at.Trace.CumUploads {
		uploads[i] = float64(c)
	}
	return report.Series{Name: at.Name, X: uploads, Y: at.Trace.Accuracy}
}

// Fig4Result holds the three-algorithm comparison for one workload.
type Fig4Result struct {
	Workload string
	Vanilla  AlgorithmTrace
	Gaia     AlgorithmTrace
	CMFL     AlgorithmTrace
	// Targets are the accuracies summarised in Table I.
	Targets []float64
}

// newFig4Result labels the traces of the workload's three gates, in gate
// order.
func newFig4Result(w Workload, traces [3]*stats.AccuracyTrace) *Fig4Result {
	t := w.Train()
	var at [3]AlgorithmTrace
	for i, g := range gates(t) {
		at[i] = AlgorithmTrace{Name: g.Alg, Trace: traces[i]}
	}
	return &Fig4Result{Workload: w.Name(), Vanilla: at[0], Gaia: at[1], CMFL: at[2], Targets: t.AccuracyTargets}
}

// Fig4 compares vanilla, Gaia and CMFL on one workload (Fig. 4a: the digit
// CNN, Fig. 4b: the next-word LSTM).
func Fig4(s *Runs, w Workload) (*Fig4Result, error) {
	var traces [3]*stats.AccuracyTrace
	for i, g := range gates(w.Train()) {
		res, err := s.result(w, g)
		if err != nil {
			return nil, err
		}
		traces[i] = TraceOf(res.History)
	}
	return newFig4Result(w, traces), nil
}

// Render plots accuracy against accumulated communication rounds.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — %s: accuracy vs accumulated communication rounds\n", r.Workload)
	b.WriteString(report.Plot("accuracy vs uploads", 64, 16,
		r.Vanilla.series(), r.Gaia.series(), r.CMFL.series()))
	b.WriteString(report.Table([]string{"target", "Gaia saving", "CMFL saving"}, r.savingsRows()))
	return b.String()
}

// Savings returns (gaia, cmfl) savings for each target; NaN when a trace
// never reaches the target.
func (r *Fig4Result) Savings() (gaiaS, cmflS []float64) {
	return savingsAt(r.Vanilla.Trace, r.Gaia.Trace, r.Targets), savingsAt(r.Vanilla.Trace, r.CMFL.Trace, r.Targets)
}

// savingsRows are this workload's Table I rows.
func (r *Fig4Result) savingsRows() [][]string {
	gs, cs := r.Savings()
	rows := make([][]string, len(r.Targets))
	for i, target := range r.Targets {
		rows[i] = []string{fmt.Sprintf("%s %.0f%% accuracy", r.Workload, 100*target), fmtSaving(gs[i]), fmtSaving(cs[i])}
	}
	return rows
}

// Table1Render combines both workloads into the paper's Table I.
func Table1Render(mnist, nwp *Fig4Result) string {
	return "Table I — communication saving vs vanilla FL\n" +
		report.Table([]string{"target", "Gaia", "CMFL"}, append(mnist.savingsRows(), nwp.savingsRows()...))
}

// savingsAt is alg's saving over base (stats.Saving) at each target, NaN
// where either trace never reaches it.
func savingsAt(base, alg *stats.AccuracyTrace, targets []float64) []float64 {
	out := make([]float64, len(targets))
	for i, target := range targets {
		s, ok := stats.Saving(base, alg, target)
		if !ok {
			s = math.NaN()
		}
		out[i] = s
	}
	return out
}

func fmtSaving(s float64) string {
	if math.IsNaN(s) {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", s)
}

// cdfSeries are the CDFs a and b, n points each, as the series of a plot
// (Figs. 1, 3 and 6) or the columns of a CSV.
func cdfSeries(n int, a, b *stats.CDF, aName, bName string) []report.Series {
	ax, ap := a.Points(n)
	bx, bp := b.Points(n)
	return []report.Series{{Name: aName, X: ax, Y: ap}, {Name: bName, X: bx, Y: bp}}
}

func dropNaN(v []float64) []float64 {
	out := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
