// cmfl-frontier sweeps the wire-efficiency stack — CMFL gating composed with
// the codec chain — over the quick workloads and prints the bytes-vs-accuracy
// frontier: for each codec, the total uplink bytes (read back from the
// telemetry counters, the same series /metrics exports) against the final
// test accuracy. This is the generator behind the frontier table in
// EXPERIMENTS.md.
//
// Example:
//
//	cmfl-frontier -workload mnist -codecs none,quantize8,top200,top200+quantize8
//	cmfl-frontier -workload both -markdown
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/experiments"
	"cmfl/internal/fl"
	"cmfl/internal/report"
	"cmfl/internal/telemetry"
)

// row is one frontier point.
type row struct {
	workload string
	codec    string
	acc      float64
	uplink   int64
	uploads  int64
	perUp    float64
	ratio    float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmfl-frontier: ")

	workload := flag.String("workload", "both", "workload to sweep: mnist|nwp|both")
	codecList := flag.String("codecs", "none,quantize8,sign1bit,codebook16,top200,top200+quantize8,top200+sign1bit",
		"comma-separated codec names to sweep (grammar of the -compress flags)")
	rounds := flag.Int("rounds", 0, "override the preset round budget (0 = preset)")
	gate := flag.Bool("gate", true, "apply the CMFL relevance gate (false = vanilla uploads)")
	errorFeedback := flag.Bool("error-feedback", true, "EF-SGD residual accumulation for lossy codecs")
	markdown := flag.Bool("markdown", false, "emit a Markdown table instead of plain text")
	flag.Parse()

	var rows []row
	for _, wl := range strings.Split(*workload, ",") {
		if wl == "both" {
			rows = append(rows, sweep("mnist", *codecList, *rounds, *gate, *errorFeedback)...)
			rows = append(rows, sweep("nwp", *codecList, *rounds, *gate, *errorFeedback)...)
		} else {
			rows = append(rows, sweep(wl, *codecList, *rounds, *gate, *errorFeedback)...)
		}
	}
	printRows(rows, *markdown)
}

// sweep runs every codec over one built federation of the workload's quick
// preset and returns the frontier points.
func sweep(workload, codecList string, rounds int, gate, errorFeedback bool) []row {
	w, err := experiments.Preset(workload, "quick")
	if err != nil {
		log.Fatal(err)
	}
	if rounds > 0 {
		w.Train().Rounds = rounds
	}
	fed, err := w.Build()
	if err != nil {
		log.Fatalf("%s: %v", workload, err)
	}
	var rows []row
	for _, name := range strings.Split(codecList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, err := runOne(w, fed, name, gate, errorFeedback)
		if err != nil {
			log.Fatalf("%s/%s: %v", workload, name, err)
		}
		r.workload = workload
		log.Printf("%s/%-18s acc %.3f, uplink %d bytes (%.0f per upload, %.1fx vs raw)",
			workload, name, r.acc, r.uplink, r.perUp, r.ratio)
		rows = append(rows, r)
	}
	return rows
}

// runOne executes one (workload, codec) cell and reads the communication
// totals back from the telemetry registry — the frontier is generated from
// the exported counters, not from ad-hoc accounting.
func runOne(w experiments.Workload, fed *experiments.Federation, codecName string, gate, errorFeedback bool) (row, error) {
	codec, err := compress.ParseName(codecName)
	if err != nil {
		return row{}, err
	}
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)

	var filter fl.UploadFilter
	if gate {
		filter = core.NewFilter(core.Constant(w.Train().CMFLThreshold))
	}
	cfg := w.Train().FLConfig(fed, filter)
	cfg.Compressor = codec
	cfg.ErrorFeedback = errorFeedback
	cfg.Observers = append(cfg.Observers, col)
	dim := fed.Model().NumParams()

	res, err := fl.Run(cfg)
	if err != nil {
		return row{}, err
	}
	snap := reg.Snapshot()
	uplink := int64(snap[`cmfl_uplink_bytes_total{engine="fl"}`])
	uploads := int64(snap[`cmfl_uploads_total{engine="fl"}`])
	perUp := 0.0
	ratio := 1.0
	if uploads > 0 {
		// Skip notifications ride the same counter; subtract them to isolate
		// the per-update payload cost.
		skips := int64(snap[`cmfl_skips_total{engine="fl"}`])
		payload := uplink - skips*fl.SkipNotificationBytes
		perUp = float64(payload) / float64(uploads)
		ratio = float64(dim*8) / perUp
	}
	return row{
		codec:   codecName,
		acc:     res.FinalAccuracy(),
		uplink:  uplink,
		uploads: uploads,
		perUp:   perUp,
		ratio:   ratio,
	}, nil
}

func printRows(rows []row, markdown bool) {
	headers := []string{"workload", "codec", "final acc", "uplink bytes", "uploads", "bytes/update", "vs raw"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.workload, r.codec,
			fmt.Sprintf("%.3f", r.acc),
			fmt.Sprintf("%d", r.uplink),
			fmt.Sprintf("%d", r.uploads),
			fmt.Sprintf("%.0f", r.perUp),
			fmt.Sprintf("%.1fx", r.ratio),
		})
	}
	if !markdown {
		fmt.Print(report.Table(headers, cells))
		return
	}
	fmt.Println("| " + strings.Join(headers, " | ") + " |")
	fmt.Println("|" + strings.Repeat("---|", len(headers)))
	for _, c := range cells {
		fmt.Println("| " + strings.Join(c, " | ") + " |")
	}
}
