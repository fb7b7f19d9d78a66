package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/emu"
	"cmfl/internal/fl"
	"cmfl/internal/gaia"
	"cmfl/internal/report"
	"cmfl/internal/xrand"
)

// EmulationSetup describes the Fig. 7 testbed: the next-word workload split
// across a TCP master–slave cluster (paper: 30 EC2 nodes, dialogue of 3
// roles per client).
type EmulationSetup struct {
	NWP NWPSetup
	// Clients is the cluster size (paper: 30).
	Clients int
	// CMFLThreshold / GaiaThreshold are the paper-tuned 0.65 / 0.15.
	CMFLThreshold float64
	GaiaThreshold float64
	// AccuracyTargets are the three Fig. 7b bars.
	AccuracyTargets []float64
	Timeout         time.Duration
}

// QuickEmulation is the seconds-scale preset (fewer clients, small LSTM).
func QuickEmulation() EmulationSetup {
	nwp := QuickNWP()
	nwp.Dialogue.Roles = 8
	nwp.OutlierRoles = 2
	nwp.Rounds = 150
	return EmulationSetup{
		NWP:             nwp,
		Clients:         8,
		CMFLThreshold:   0.5,
		GaiaThreshold:   0.02,
		AccuracyTargets: []float64{0.20, 0.24, 0.26},
		Timeout:         120 * time.Second,
	}
}

// PaperEmulation mirrors the paper's 30-client EC2 benchmark shape.
func PaperEmulation() EmulationSetup {
	s := QuickEmulation()
	s.NWP = PaperNWP()
	s.NWP.Dialogue.Roles = 30
	s.Clients = 30
	s.CMFLThreshold = 0.65
	s.GaiaThreshold = 0.15
	s.AccuracyTargets = []float64{0.50, 0.60, 0.70}
	return s
}

// Fig7Result holds the cluster traces and footprint comparison.
type Fig7Result struct {
	Vanilla, Gaia, CMFL AlgorithmTrace
	// BytesAt maps each target accuracy to the application-level uplink
	// bytes each algorithm needed (NaN when unreached).
	Targets      []float64
	VanillaBytes []float64
	GaiaBytes    []float64
	CMFLBytes    []float64
	// WireBytes are the actual TCP payload bytes the server observed.
	VanillaWire, GaiaWire, CMFLWire int64
}

// Fig7 runs the three algorithms over a real localhost TCP cluster.
func Fig7(s EmulationSetup) (*Fig7Result, error) {
	fed, err := s.NWP.Build()
	if err != nil {
		return nil, err
	}
	if len(fed.Shards) < s.Clients {
		return nil, fmt.Errorf("experiments: fig7 needs %d shards, have %d", s.Clients, len(fed.Shards))
	}
	shards := fed.Shards[:s.Clients]
	test, model := fed.Test, fed.Model

	run := func(filter fl.UploadFilter) (*emu.ServerResult, error) {
		res, err := emu.RunCluster(emu.ClusterConfig{
			Model:      model,
			ClientData: shards,
			TestData:   test,
			Epochs:     s.NWP.Epochs,
			Batch:      s.NWP.Batch,
			LR:         core.InvSqrt{V0: s.NWP.Eta0},
			Filter:     filter,
			Rounds:     s.NWP.Rounds,
			Seed:       s.NWP.Seed,
			Limits:     emu.Limits{DialTimeout: s.Timeout, RoundDeadline: s.Timeout},
		})
		if err != nil {
			return nil, err
		}
		return res.Server, nil
	}

	v, err := run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig7 vanilla: %w", err)
	}
	g, err := run(gaia.NewFilter(core.Constant(s.GaiaThreshold)))
	if err != nil {
		return nil, fmt.Errorf("experiments: fig7 gaia: %w", err)
	}
	c, err := run(core.NewFilter(core.Constant(s.CMFLThreshold)))
	if err != nil {
		return nil, fmt.Errorf("experiments: fig7 cmfl: %w", err)
	}

	out := &Fig7Result{
		Vanilla:     AlgorithmTrace{Name: "vanilla", Trace: TraceOf(v.History)},
		Gaia:        AlgorithmTrace{Name: "gaia", Trace: TraceOf(g.History)},
		CMFL:        AlgorithmTrace{Name: "cmfl", Trace: TraceOf(c.History)},
		Targets:     s.AccuracyTargets,
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
	for _, target := range s.AccuracyTargets {
		out.VanillaBytes = append(out.VanillaBytes, bytesAt(v.History, target))
		out.GaiaBytes = append(out.GaiaBytes, bytesAt(g.History, target))
		out.CMFLBytes = append(out.CMFLBytes, bytesAt(c.History, target))
	}
	return out, nil
}

// Render plots the Fig. 7a traces and prints the Fig. 7b footprint table.
func (r *Fig7Result) Render() string {
	toSeries := func(at AlgorithmTrace) report.Series {
		xs := make([]float64, len(at.Trace.CumUploads))
		for i, cu := range at.Trace.CumUploads {
			xs[i] = float64(cu)
		}
		return report.Series{Name: at.Name, X: xs, Y: at.Trace.Accuracy}
	}
	var b strings.Builder
	b.WriteString("Fig. 7 — TCP emulation of the EC2 deployment (NWP LSTM)\n")
	b.WriteString(report.Plot("(a) accuracy vs accumulated communication rounds", 64, 14,
		toSeries(r.Vanilla), toSeries(r.Gaia), toSeries(r.CMFL)))
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
			fmtSaving(red, !math.IsNaN(red)),
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

// Overhead measures both costs on the MNIST workload.
func Overhead(mn MNISTSetup) (*OverheadResult, error) {
	fed, err := mn.Build()
	if err != nil {
		return nil, err
	}
	net := fed.Model()
	params := net.ParamVector()
	dim := len(params)
	// Produce a real update by one local training pass.
	rng := xrand.Derive(mn.Seed, "overhead", 0)
	start := time.Now()
	delta, _, err := fl.LocalTrain(net, fed.Shards[0], params, 0.1, mn.Epochs, mn.Batch, rng)
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
