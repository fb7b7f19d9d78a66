// cmfl-emu regenerates the paper's testbed experiment (Fig. 7): the
// next-word-prediction workload trained by a master and D slaves over real
// TCP connections on localhost, with exact uplink byte accounting.
//
// Usage:
//
//	cmfl-emu -scale quick
//	cmfl-emu -scale paper -clients 30
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
	log.SetPrefix("cmfl-emu: ")

	scale := flag.String("scale", "quick", "preset scale: quick|paper")
	clients := flag.Int("clients", 0, "override cluster size (0 = preset)")
	rounds := flag.Int("rounds", 0, "override round budget (0 = preset)")
	csvDir := flag.String("csv", "", "also write the figure's data series as CSV into this directory")
	flag.Parse()

	w, err := experiments.Preset("emu", *scale)
	if err != nil {
		log.Fatal(err)
	}
	if *clients > 0 {
		w.(*experiments.NWPSetup).Dialogue.Roles = *clients // one client per role
	}
	if *rounds > 0 {
		w.Train().Rounds = *rounds
	}

	start := time.Now()
	res, err := experiments.Fig7(w)
	if err != nil {
		log.Fatal(err)
	}
	if err := experiments.WriteCSV(*csvDir, "fig7.csv", res.CSV()); err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Fprintf(os.Stderr, "[fig7 finished in %v]\n", time.Since(start).Round(time.Millisecond))
}
