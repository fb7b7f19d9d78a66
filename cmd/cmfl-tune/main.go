// cmfl-tune reproduces the paper's threshold-tuning procedure: it sweeps a
// set of relevance (CMFL) or significance (Gaia) thresholds on a workload
// and reports the communication saving of each, so the best-performing
// threshold can be selected for the figures — exactly how Sec. V-A tunes
// 0.8/0.05 (MNIST) and 0.7/0.25 (NWP).
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"cmfl/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmfl-tune: ")

	workload := flag.String("workload", "mnist", "workload: mnist|nwp|emu")
	alg := flag.String("alg", "cmfl", "algorithm: cmfl|gaia")
	scale := flag.String("scale", "quick", "preset scale: quick|paper")
	decay := flag.Bool("decay", false, "use v0/sqrt(t) decay for the CMFL threshold")
	list := flag.String("thresholds", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.85,0.9",
		"comma-separated threshold values")
	rounds := flag.Int("rounds", 0, "override round budget (0 = preset)")
	flag.Parse()

	thresholds, err := parseList(*list)
	if err != nil {
		log.Fatal(err)
	}

	w, err := experiments.Preset(*workload, *scale)
	if err != nil {
		log.Fatal(err)
	}
	if *rounds > 0 {
		w.Train().Rounds = *rounds
	}
	res, err := experiments.Sweep(&experiments.Runs{}, w, *alg, thresholds, *decay)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	best := res.Best()
	fmt.Printf("best threshold: %.2f (upload fraction %.2f, best accuracy %.3f)\n",
		best.Threshold, best.UploadFraction, best.BestAccuracy)
}

func parseList(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
