// Async: the FedAsync-style extension — clients train at their own speeds
// (speed factors from 0.5 to 6), the server applies each update on arrival with
// staleness damping, and CMFL's relevance gate runs against an EMA of the
// recently applied updates. Every completion reports its upload to the
// adaptive filter, which moves its threshold until the target fraction of
// completions uploads, so no manual sweep is needed.
package main

import (
	"fmt"
	"log"

	"cmfl"
)

func main() {
	const clients = 8
	all, err := cmfl.Digits(cmfl.DigitsConfig{Samples: clients * 30, ImageSize: 10, Noise: 0.2, Seed: 51})
	if err != nil {
		log.Fatal(err)
	}
	shards, err := cmfl.SortedShards(all, clients, 2, cmfl.NewStream(52))
	if err != nil {
		log.Fatal(err)
	}
	test, err := cmfl.Digits(cmfl.DigitsConfig{Samples: 200, ImageSize: 10, Noise: 0.2, Seed: 53})
	if err != nil {
		log.Fatal(err)
	}

	filter := cmfl.NewAdaptiveFilter(0.5, 0.7) // target: 70% of completions upload
	lo, hi := filter.Threshold(), filter.Threshold()
	track := cmfl.ObserverFuncs{Round: func(cmfl.RoundEvent) {
		lo, hi = min(lo, filter.Threshold()), max(hi, filter.Threshold())
	}}
	res, err := cmfl.RunAsyncFederated(cmfl.AsyncConfig{
		Model: func() *cmfl.Network {
			return cmfl.NewLogisticFlat(100, 10, cmfl.DeriveStream(54, "init", 0))
		},
		ClientData:      shards,
		TestData:        test,
		Epochs:          2,
		Batch:           4,
		LR:              cmfl.Constant(0.1),
		Filter:          filter,
		StragglerFactor: 6,
		Updates:         clients * 25,
		EvalEvery:       clients * 5,
		Seed:            55,
		Observers:       []cmfl.Observer{track},
	})
	if err != nil {
		log.Fatal(err)
	}

	last := res.Events[len(res.Events)-1]
	fmt.Printf("events=%d uploads=%d mean-staleness=%.2f\n",
		len(res.Events), last.CumUploads, res.MeanStaleness)
	fmt.Printf("final accuracy %.3f, adaptive threshold %.3f (ranged %.3f-%.3f)\n",
		res.FinalAccuracy(), filter.Threshold(), lo, hi)
	fmt.Println("\nper-client skips (slow clients skip stale, irrelevant updates):")
	for c, s := range res.SkipCounts {
		fmt.Printf("  client %d: %d skips\n", c, s)
	}
}
