package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/emu"
	"cmfl/internal/fl"
	"cmfl/internal/report"
	"cmfl/internal/stats"
	"cmfl/internal/xrand"
)

// QuickEmulation is the Fig. 7 testbed at seconds scale: the quick
// next-word workload on an 8-client cluster, one client per role, with the
// cluster's own thresholds and the three Fig. 7b targets.
func QuickEmulation() *NWPSetup {
	s := QuickNWP()
	s.Dialogue.Roles = 8
	s.OutlierRoles = 2
	s.Rounds = 150
	s.CMFLThreshold = 0.5
	s.GaiaThreshold = 0.02
	s.AccuracyTargets = []float64{0.20, 0.24, 0.26}
	return s
}

// PaperEmulation mirrors the paper's 30-client EC2 benchmark shape, with
// its tuned 0.65 / 0.15 thresholds.
func PaperEmulation() *NWPSetup {
	s := PaperNWP()
	s.Dialogue.Roles = 30
	s.CMFLThreshold = 0.65
	s.GaiaThreshold = 0.15
	s.AccuracyTargets = []float64{0.50, 0.60, 0.70}
	return s
}

// clusterTimeout bounds Fig. 7's dials and rounds.
const clusterTimeout = 120 * time.Second

// Fig7Result holds the cluster traces and footprint comparison: the Fig. 4
// comparison run over TCP, with byte accounting.
type Fig7Result struct {
	Fig4Result
	// VanillaBytes, GaiaBytes and CMFLBytes are the application-level
	// uplink bytes each algorithm needed to reach each target (NaN when
	// unreached).
	VanillaBytes []float64
	GaiaBytes    []float64
	CMFLBytes    []float64
	// WireBytes are the actual TCP payload bytes the server observed.
	VanillaWire, GaiaWire, CMFLWire int64
}

// Fig7 runs the three algorithms over a real localhost TCP cluster of one
// client per shard the workload builds (the paper: the next-word workload
// on 30 EC2 nodes).
func Fig7(w Workload) (*Fig7Result, error) {
	fed, err := w.Build()
	if err != nil {
		return nil, err
	}
	t := w.Train()
	var runs [3]*emu.ServerResult
	for i, g := range gates(t) {
		res, err := emu.RunCluster(emu.ClusterConfig{
			Model:      fed.Model,
			ClientData: fed.Shards,
			TestData:   fed.Test,
			Epochs:     t.Epochs,
			Batch:      t.Batch,
			LR:         core.InvSqrt{V0: t.Eta0},
			Filter:     g.filter(),
			Rounds:     t.Rounds,
			Seed:       t.Seed,
			Limits:     emu.Limits{DialTimeout: clusterTimeout, RoundDeadline: clusterTimeout},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig7 %s %s: %w", w.Name(), g.Alg, err)
		}
		runs[i] = res.Server
	}
	v, g, c := runs[0], runs[1], runs[2]
	out := &Fig7Result{
		Fig4Result:  *newFig4Result(w, [3]*stats.AccuracyTrace{TraceOf(v.History), TraceOf(g.History), TraceOf(c.History)}),
		VanillaWire: v.UplinkWireBytes,
		GaiaWire:    g.UplinkWireBytes,
		CMFLWire:    c.UplinkWireBytes,
	}
	bytesAt := func(history []emu.RoundStats, target float64) float64 {
		for _, h := range history {
			if !math.IsNaN(h.Accuracy) && h.Accuracy >= target {
				return float64(h.CumUplinkBytes)
			}
		}
		return math.NaN()
	}
	for _, target := range t.AccuracyTargets {
		out.VanillaBytes = append(out.VanillaBytes, bytesAt(v.History, target))
		out.GaiaBytes = append(out.GaiaBytes, bytesAt(g.History, target))
		out.CMFLBytes = append(out.CMFLBytes, bytesAt(c.History, target))
	}
	return out, nil
}

// Render plots the Fig. 7a traces and prints the Fig. 7b footprint table.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — TCP emulation of the EC2 deployment (%s)\n", r.Workload)
	b.WriteString(report.Plot("(a) accuracy vs accumulated communication rounds", 64, 14,
		r.Vanilla.series(), r.Gaia.series(), r.CMFL.series()))
	rows := make([][]string, 0, len(r.Targets))
	for i, target := range r.Targets {
		red := math.NaN()
		if !math.IsNaN(r.VanillaBytes[i]) && !math.IsNaN(r.CMFLBytes[i]) && r.CMFLBytes[i] > 0 {
			red = r.VanillaBytes[i] / r.CMFLBytes[i]
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", 100*target),
			fmtBytes(r.VanillaBytes[i]),
			fmtBytes(r.GaiaBytes[i]),
			fmtBytes(r.CMFLBytes[i]),
			fmtSaving(red),
		})
	}
	b.WriteString("(b) uplink footprint to reach each accuracy\n")
	b.WriteString(report.Table([]string{"accuracy", "vanilla", "gaia", "cmfl", "cmfl reduction"}, rows))
	fmt.Fprintf(&b, "observed wire bytes (whole run): vanilla %s, gaia %s, cmfl %s\n",
		fmtBytes(float64(r.VanillaWire)), fmtBytes(float64(r.GaiaWire)), fmtBytes(float64(r.CMFLWire)))
	return b.String()
}

func fmtBytes(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

// OverheadResult is the Sec. V-C micro-benchmark: time to check one
// update's relevance vs time of one local training iteration.
type OverheadResult struct {
	RelevanceCheck time.Duration
	LocalIteration time.Duration
	Dim            int
}

// Overhead measures both costs on a workload (the paper's: MNIST).
func Overhead(w Workload) (*OverheadResult, error) {
	fed, err := w.Build()
	if err != nil {
		return nil, err
	}
	net := fed.Model()
	params := net.ParamVector()
	dim := len(params)
	// Produce a real update by one local training pass.
	t := w.Train()
	rng := xrand.Derive(t.Seed, "overhead", 0)
	start := time.Now()
	delta, _, err := fl.LocalTrain(net, fed.Shards[0], params, 0.1, t.Epochs, t.Batch, rng)
	if err != nil {
		return nil, err
	}
	localDur := time.Since(start)

	// The check the engines run: the broadcast carries the feedback's signs,
	// taken once a round, and each client compares its update against them.
	signs := core.SignsInto(nil, delta)
	const reps = 1000
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := core.SignAgreement(delta, signs); err != nil {
			return nil, err
		}
	}
	checkDur := time.Since(start) / reps
	return &OverheadResult{RelevanceCheck: checkDur, LocalIteration: localDur, Dim: dim}, nil
}

// Render prints the overhead comparison (paper: < 0.13%).
func (r *OverheadResult) Render() string {
	frac := float64(r.RelevanceCheck) / float64(r.LocalIteration) * 100
	return fmt.Sprintf(
		"Sec. V-C — relevance-check overhead (%d params): check %v, local iteration %v (%.4f%%)\n",
		r.Dim, r.RelevanceCheck, r.LocalIteration, frac)
}
