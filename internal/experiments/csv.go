package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"cmfl/internal/report"
)

// CSV renders the Fig. 1 divergence CDFs as comma-separated series.
func (r *Fig1Result) CSV() string {
	mx, mp := r.MNIST.Points(100)
	nx, np := r.NWP.Points(100)
	return report.CSV([]string{"mnist_dj", "mnist_cdf", "nwp_dj", "nwp_cdf"}, mx, mp, nx, np)
}

// CSV renders the Fig. 2 per-round measures.
func (r *Fig2Result) CSV() string {
	return report.CSV([]string{"round", "significance", "relevance"}, r.Rounds, r.Significance, r.Relevance)
}

// CSV renders the Fig. 3 ΔUpdate CDFs.
func (r *Fig3Result) CSV() string {
	mx, mp := r.MNIST.Points(100)
	nx, np := r.NWP.Points(100)
	return report.CSV([]string{"mnist_du", "mnist_cdf", "nwp_du", "nwp_cdf"}, mx, mp, nx, np)
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
	ox, op := r.Outliers.Points(100)
	nx, np := r.NonOutliers.Points(100)
	return report.CSV([]string{"outlier_dj", "outlier_cdf", "inlier_dj", "inlier_cdf"}, ox, op, nx, np)
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
