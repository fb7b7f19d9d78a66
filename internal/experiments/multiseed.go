package experiments

import (
	"fmt"
	"strings"

	"cmfl/internal/report"
	"cmfl/internal/stats"
)

// MultiSeedResult aggregates a figure's headline savings across independent
// seeds, giving the mean ± std robustness view a single deterministic run
// cannot.
type MultiSeedResult struct {
	Workload string
	Targets  []float64
	Seeds    []int64
	// Gaia and CMFL hold one summary per target accuracy.
	Gaia []stats.Summary
	CMFL []stats.Summary
}

// MultiSeedFig4 repeats the workload's Fig. 4 comparison once per seed,
// each on a copy reseeded by the workload's own rule; a seed whose copy
// equals a setup already run reads that run.
func MultiSeedFig4(s *Runs, w Workload, seeds []int64) (*MultiSeedResult, error) {
	targets := w.Train().AccuracyTargets
	out := &MultiSeedResult{
		Workload: w.Name(),
		Targets:  targets,
		Seeds:    seeds,
		Gaia:     make([]stats.Summary, len(targets)),
		CMFL:     make([]stats.Summary, len(targets)),
	}
	for _, seed := range seeds {
		r, err := Fig4(s, w.Reseed(seed))
		if err != nil {
			return nil, fmt.Errorf("experiments: multiseed fig4 seed %d: %w", seed, err)
		}
		gs, cs := r.Savings()
		for i := range targets {
			out.Gaia[i].Add(gs[i])
			out.CMFL[i].Add(cs[i])
		}
	}
	return out, nil
}

// Render prints the aggregated savings table. Summaries whose N is below
// the seed count flag how often a target was unreachable.
func (r *MultiSeedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 (%s) across %d seeds — saving vs vanilla FL\n", r.Workload, len(r.Seeds))
	rows := make([][]string, 0, len(r.Targets))
	for i, target := range r.Targets {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%% accuracy", 100*target),
			r.Gaia[i].String(),
			r.CMFL[i].String(),
		})
	}
	b.WriteString(report.Table([]string{"target", "Gaia saving", "CMFL saving"}, rows))
	return b.String()
}
