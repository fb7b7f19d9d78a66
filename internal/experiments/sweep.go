package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cmfl/internal/report"
)

// SweepPoint is one threshold's outcome in a tuning sweep.
type SweepPoint struct {
	Threshold float64
	// Saving at each accuracy target (NaN when unreached).
	Savings []float64
	// UploadFraction is uploads / (clients × rounds).
	UploadFraction float64
	BestAccuracy   float64
}

// SweepResult is the paper's threshold-tuning procedure (Sec. V-A: "we
// tested a set of 10 threshold values ... and chose the threshold values
// with the best performance").
type SweepResult struct {
	Algorithm string
	Targets   []float64
	Points    []SweepPoint
}

// Best returns the threshold with the highest saving at the last (hardest)
// target, falling back to earlier targets and then best accuracy.
func (r *SweepResult) Best() SweepPoint {
	best := r.Points[0]
	score := func(p SweepPoint) float64 {
		for i := len(p.Savings) - 1; i >= 0; i-- {
			if !math.IsNaN(p.Savings[i]) {
				return float64(i+1)*1000 + p.Savings[i]
			}
		}
		return p.BestAccuracy
	}
	for _, p := range r.Points[1:] {
		if score(p) > score(best) {
			best = p
		}
	}
	return best
}

// Render prints the sweep as a table.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Threshold sweep — %s\n", r.Algorithm)
	headers := []string{"threshold", "upload frac", "best acc"}
	for _, t := range r.Targets {
		headers = append(headers, fmt.Sprintf("saving@%.0f%%", 100*t))
	}
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		row := []string{
			fmt.Sprintf("%.2f", p.Threshold),
			fmt.Sprintf("%.2f", p.UploadFraction),
			fmt.Sprintf("%.3f", p.BestAccuracy),
		}
		for _, s := range p.Savings {
			row = append(row, fmtSaving(s))
		}
		rows = append(rows, row)
	}
	b.WriteString(report.Table(headers, rows))
	return b.String()
}

// Sweep runs the paper's tuning procedure for one algorithm (cmfl or gaia)
// on the workload: one run per threshold, each scored by its saving over
// the workload's vanilla run at its targets. decay gives CMFL the v0/√t
// schedule; Gaia's thresholds stay constant, so asking to decay them is an
// error.
func Sweep(s *Runs, w Workload, alg string, thresholds []float64, decay bool) (*SweepResult, error) {
	switch {
	case alg != "cmfl" && alg != "gaia":
		return nil, fmt.Errorf("experiments: unknown algorithm %q (want cmfl or gaia)", alg)
	case alg == "gaia" && decay:
		return nil, errors.New("experiments: decay applies to CMFL's threshold only, not Gaia's")
	}
	base, err := s.result(w, vanillaGate)
	if err != nil {
		return nil, err
	}
	t, baseTrace := w.Train(), TraceOf(base.History)
	out := &SweepResult{Algorithm: alg + " on " + w.Name(), Targets: t.AccuracyTargets}
	for _, v := range thresholds {
		res, err := s.result(w, gate{Alg: alg, Threshold: v, Decay: decay})
		if err != nil {
			return nil, err
		}
		trace, last := TraceOf(res.History), res.History[len(res.History)-1]
		out.Points = append(out.Points, SweepPoint{
			Threshold:      v,
			Savings:        savingsAt(baseTrace, trace, t.AccuracyTargets),
			UploadFraction: float64(last.CumUploads) / float64(len(res.SkipCounts)*len(res.History)),
			BestAccuracy:   trace.BestAccuracy(),
		})
	}
	return out, nil
}
