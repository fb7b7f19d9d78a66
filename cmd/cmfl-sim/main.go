// cmfl-sim regenerates the paper's simulation figures and tables
// (Fig. 1-4, Table I) on the vanilla-FL workloads.
//
// Usage:
//
//	cmfl-sim -exp all -scale quick
//	cmfl-sim -exp fig4a -scale paper
//	cmfl-sim -exp overhead
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cmfl/internal/experiments"
)

// figure is what every experiment prints; those with a CSV() method also
// write their data series under -csv.
type figure interface{ Render() string }

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmfl-sim: ")

	exp := flag.String("exp", "all", "experiment: fig1|fig2|fig3|fig4a|fig4b|table1|overhead|all")
	scale := flag.String("scale", "quick", "preset scale: quick|paper")
	rounds := flag.Int("rounds", 0, "override round budget (0 = preset)")
	clients := flag.Int("clients", 0, "override MNIST client count (0 = preset)")
	seed := flag.Int64("seed", 0, "override experiment seed (0 = preset)")
	csvDir := flag.String("csv", "", "also write each figure's data series as CSV into this directory")
	repeat := flag.Int("repeat", 0, "for fig4a/fig4b: rerun across this many seeds and report mean ± std savings")
	flag.Parse()

	known := map[string]bool{"all": true, "fig1": true, "fig2": true, "fig3": true, "fig4a": true, "fig4b": true, "table1": true, "overhead": true}
	if !known[*exp] {
		log.Fatalf("unknown -exp %q", *exp)
	}
	var ws [2]experiments.Workload
	for i, name := range []string{"mnist", "nwp"} {
		w, err := experiments.Preset(name, *scale)
		if err != nil {
			log.Fatal(err)
		}
		if *seed != 0 {
			w = w.Reseed(*seed)
		}
		if *rounds > 0 {
			w.Train().Rounds = *rounds
		}
		ws[i] = w
	}
	mn, nw := ws[0], ws[1]
	if *clients > 0 {
		mn.(*experiments.MNISTSetup).Clients = *clients
	}
	// One store for the whole invocation: the vanilla run each workload's
	// figures share is trained once.
	runs := &experiments.Runs{}

	run := func(name string, f func() (figure, error)) {
		start := time.Now()
		r, err := f()
		if c, ok := r.(interface{ CSV() string }); ok && err == nil {
			err = experiments.WriteCSV(*csvDir, name+".csv", c.CSV())
		}
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(strings.TrimRight(r.Render(), "\n"))
		fmt.Fprintf(os.Stderr, "[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig1") {
		run("fig1", func() (figure, error) { return experiments.Fig1(runs, mn, nw) })
	}
	if want("fig2") {
		run("fig2", func() (figure, error) { return experiments.Fig2(runs, mn) })
	}
	if want("fig3") {
		run("fig3", func() (figure, error) { return experiments.Fig3(runs, mn, nw) })
	}
	fig4 := []string{"fig4a", "fig4b"}
	var table1 []*experiments.Fig4Result
	for i, name := range fig4 {
		if want(name) || want("table1") {
			run(name, func() (figure, error) {
				r, err := experiments.Fig4(runs, ws[i])
				table1 = append(table1, r)
				return r, err
			})
		}
	}
	if want("table1") {
		fmt.Println(experiments.Table1Render(table1[0], table1[1]))
	}
	if *repeat > 1 {
		for i, name := range fig4 {
			if want(name) {
				// The seeds count up from the workload's own, whose runs
				// Fig. 4 has already trained.
				seeds := make([]int64, *repeat)
				for k := range seeds {
					seeds[k] = ws[i].Train().Seed + int64(k)
				}
				r, err := experiments.MultiSeedFig4(runs, ws[i], seeds)
				if err != nil {
					log.Fatalf("%s multiseed: %v", name, err)
				}
				fmt.Println(r.Render())
			}
		}
	}
	if want("overhead") {
		run("overhead", func() (figure, error) { return experiments.Overhead(mn) })
	}
}
