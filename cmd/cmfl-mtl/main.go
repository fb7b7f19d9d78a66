// cmfl-mtl regenerates the paper's federated multi-task experiments
// (Fig. 5, Fig. 6, Table II): MOCHA vs MOCHA+CMFL on the Human Activity
// Recognition and Semeion workloads.
//
// Usage:
//
//	cmfl-mtl -exp all -scale quick
//	cmfl-mtl -exp fig6 -scale paper
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cmfl/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmfl-mtl: ")

	exp := flag.String("exp", "all", "experiment: fig5a|fig5b|fig6|table2|all")
	scale := flag.String("scale", "quick", "preset scale: quick|paper")
	rounds := flag.Int("rounds", 0, "override round budget (0 = preset)")
	csvDir := flag.String("csv", "", "also write each figure's data series as CSV into this directory")
	flag.Parse()

	var har, semeion experiments.MTLSetup
	switch *scale {
	case "quick":
		har, semeion = experiments.QuickHAR(), experiments.QuickSemeion()
	case "paper":
		har, semeion = experiments.PaperHAR(), experiments.PaperSemeion()
	default:
		log.Fatalf("unknown -scale %q (want quick or paper)", *scale)
	}
	if *rounds > 0 {
		har.Rounds, semeion.Rounds = *rounds, *rounds
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	known := map[string]bool{"all": true, "fig5a": true, "fig5b": true, "fig6": true, "table2": true}
	if !known[*exp] {
		log.Fatalf("unknown -exp %q", *exp)
	}

	var harRes, semRes *experiments.Fig5Result
	timed := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if want("fig5a") || want("fig6") || want("table2") {
		timed("fig5a", func() error {
			r, err := experiments.Fig5(har)
			if err != nil {
				return err
			}
			harRes = r
			if err := experiments.WriteCSV(*csvDir, "fig5a.csv", r.CSV()); err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		})
	}
	if want("fig5b") || want("table2") {
		timed("fig5b", func() error {
			r, err := experiments.Fig5(semeion)
			if err != nil {
				return err
			}
			semRes = r
			if err := experiments.WriteCSV(*csvDir, "fig5b.csv", r.CSV()); err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		})
	}
	if want("table2") && harRes != nil && semRes != nil {
		fmt.Println(experiments.Table2Render(harRes, semRes))
	}
	if want("fig6") && harRes != nil {
		timed("fig6", func() error {
			r, err := experiments.Fig6(harRes)
			if err != nil {
				return err
			}
			if err := experiments.WriteCSV(*csvDir, "fig6.csv", r.CSV()); err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		})
	}
}
