package cmfl_test

import (
	"fmt"

	"cmfl"
)

// The relevance measure (paper Eq. 9) is the fraction of coordinates whose
// signs agree between a local update and the global update.
func ExampleRelevance() {
	local := []float64{+0.3, -0.1, +2.0, -0.4}
	global := []float64{+1.0, -9.0, -0.5, -0.2}
	rel, err := cmfl.Relevance(local, global)
	if err != nil {
		panic(err)
	}
	fmt.Printf("relevance = %.2f\n", rel)
	// Output: relevance = 0.75
}

// Gaia's significance is the update's magnitude relative to the model —
// scale-sensitive and direction-blind, which is why the paper replaces it.
func ExampleSignificance() {
	update := []float64{0.3, 0.4}
	model := []float64{5, 0}
	sig, err := cmfl.Significance(update, model)
	if err != nil {
		panic(err)
	}
	fmt.Printf("significance = %.2f\n", sig)
	// Output: significance = 0.10
}

// A CMFL filter admits an update only when its relevance reaches the
// round's threshold; the first round (no feedback yet) always uploads.
func ExampleNewCMFLFilter() {
	filter := cmfl.NewCMFLFilter(cmfl.Constant(0.6))
	global := []float64{1, 1, 1, 1, 1}

	aligned := []float64{2, 1, 3, -1, 0.5} // 4/5 signs agree
	d, _ := filter.Check(aligned, nil, global, 2)
	fmt.Printf("aligned: upload=%v relevance=%.1f\n", d.Upload, d.Metric)

	opposed := []float64{-2, -1, -3, 1, -0.5} // 1/5 signs agree
	d, _ = filter.Check(opposed, nil, global, 2)
	fmt.Printf("opposed: upload=%v relevance=%.1f\n", d.Upload, d.Metric)
	// Output:
	// aligned: upload=true relevance=0.8
	// opposed: upload=false relevance=0.2
}

// The v0/√t schedule from the paper's convergence theorem decays the
// threshold so early rounds filter aggressively and late rounds admit all.
func ExampleInvSqrt() {
	s := cmfl.InvSqrt{V0: 0.8}
	fmt.Printf("t=1: %.2f  t=4: %.2f  t=16: %.2f\n", s.At(1), s.At(4), s.At(16))
	// Output: t=1: 0.80  t=4: 0.40  t=16: 0.20
}

// DeltaUpdate (paper Eq. 8) quantifies how much two sequential global
// updates differ — the smoothness that justifies using the previous update
// as feedback.
func ExampleDeltaUpdate() {
	prev := []float64{1, 0, 0}
	next := []float64{1, 0.1, 0}
	du, err := cmfl.DeltaUpdate(prev, next)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delta-update = %.1f\n", du)
	// Output: delta-update = 0.1
}

// A full federated run: non-IID shards, a linear model, and the CMFL gate.
func ExampleRunFederated() {
	all, _ := cmfl.Digits(cmfl.DigitsConfig{Samples: 200, ImageSize: 10, Noise: 0.2, Seed: 1})
	shards, _ := cmfl.SortedShards(all, 5, 2, cmfl.NewStream(2))
	res, err := cmfl.RunFederated(cmfl.FederatedConfig{
		Model: func() *cmfl.Network {
			return cmfl.NewLogisticFlat(100, 10, cmfl.DeriveStream(3, "init", 0))
		},
		ClientData: shards,
		TestData:   all,
		Epochs:     2,
		Batch:      4,
		LR:         cmfl.Constant(0.1),
		Filter:     cmfl.NewCMFLFilter(cmfl.Constant(0.5)),
		Rounds:     5,
		Seed:       4,
	})
	if err != nil {
		panic(err)
	}
	last := res.History[len(res.History)-1]
	fmt.Printf("rounds=%d uploads=%d of %d possible\n",
		len(res.History), last.CumUploads, 5*len(res.History))
	// Output: rounds=5 uploads=24 of 25 possible
}
