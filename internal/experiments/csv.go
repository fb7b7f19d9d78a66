package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"cmfl/internal/report"
)

// CSV renders the Fig. 1 divergence CDFs as comma-separated series.
func (r *Fig1Result) CSV() string {
	s := cdfSeries(100, r.MNIST, r.NWP, "", "")
	return report.CSV([]string{"mnist_dj", "mnist_cdf", "nwp_dj", "nwp_cdf"}, s[0].X, s[0].Y, s[1].X, s[1].Y)
}

// CSV renders the Fig. 2 per-round measures.
func (r *Fig2Result) CSV() string {
	return report.CSV([]string{"round", "significance", "relevance"}, r.Rounds, r.Significance, r.Relevance)
}

// CSV renders the Fig. 3 ΔUpdate CDFs.
func (r *Fig3Result) CSV() string {
	s := cdfSeries(100, r.MNIST, r.NWP, "", "")
	return report.CSV([]string{"mnist_du", "mnist_cdf", "nwp_du", "nwp_cdf"}, s[0].X, s[0].Y, s[1].X, s[1].Y)
}

// CSV renders the Fig. 4 three-algorithm traces.
func (r *Fig4Result) CSV() string {
	v, g, c := r.Vanilla.series(), r.Gaia.series(), r.CMFL.series()
	return report.CSV(
		[]string{"vanilla_uploads", "vanilla_acc", "gaia_uploads", "gaia_acc", "cmfl_uploads", "cmfl_acc"},
		v.X, v.Y, g.X, g.Y, c.X, c.Y)
}

// CSV renders the Fig. 5 MOCHA comparison traces.
func (r *Fig5Result) CSV() string {
	m, c := r.Mocha.series(), r.WithCMFL.series()
	return report.CSV([]string{"mocha_uploads", "mocha_acc", "cmfl_uploads", "cmfl_acc"}, m.X, m.Y, c.X, c.Y)
}

// CSV renders the Fig. 6 divergence CDFs by population.
func (r *Fig6Result) CSV() string {
	s := cdfSeries(100, r.Outliers, r.NonOutliers, "", "")
	return report.CSV([]string{"outlier_dj", "outlier_cdf", "inlier_dj", "inlier_cdf"}, s[0].X, s[0].Y, s[1].X, s[1].Y)
}

// CSV renders the Fig. 7 cluster traces plus the per-target byte table.
func (r *Fig7Result) CSV() string {
	return r.Fig4Result.CSV() + report.CSV(
		[]string{"target", "vanilla_bytes", "gaia_bytes", "cmfl_bytes"},
		r.Targets, r.VanillaBytes, r.GaiaBytes, r.CMFLBytes)
}

// WriteCSV writes content into dir/name, creating dir if needed. An empty
// dir means no CSV was asked for: it writes nothing.
func WriteCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: create csv dir: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return nil
}
