// cmfl-bench is the repository's end-to-end, layer-attributed benchmark:
// five whole-run workloads across the three execution tiers (in-process fl,
// TCP emu, virtual-clock sim), nine end-to-end metrics per workload from
// untraced repetitions, and one traced repetition that attributes a round's
// time to the modules that spend it. It measures every layer from outside,
// through the seams the engines already accept. See README.md.
//
// Usage:
//
//	cmfl-bench -seed 1                         # full run: every workload, 5 reps + 1 traced, writes -out
//	cmfl-bench -workload sim_wide_q8 -seed 3 -seconds 8 -trace 0   # one workload; last stdout line is the JSON result
//	cmfl-bench -compare a.json b.json          # apply BENCHMARK.json's bounds to two result files
//	cmfl-bench -scale smoke                    # every workload shrunk to finish in seconds
//
// The parent process only orchestrates: every repetition runs in a fresh
// child (`cmfl-bench -child <request>`), so peak RSS and allocation counts
// belong to one engine call.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
)

// errIncorrect makes a full run exit non-zero after its results are written.
var errIncorrect = errors.New("a correctness check failed")

func main() {
	log.SetFlags(0)
	log.SetPrefix("cmfl-bench: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cmfl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed for data generation, model init, engine seeds and timing distributions")
	scale := fs.String("scale", scaleFull, "workload scale: full (what BENCHMARK.json describes) or smoke (seconds, for tests)")
	reps := fs.Int("reps", 5, "untraced repetitions per workload in a full run")
	out := fs.String("out", "cmd/cmfl-bench/results/latest/BENCH.json", "result file a full run writes; trace JSONL goes beside it")
	workload := fs.String("workload", "", "run this one workload and print the driver's JSON result as the last line")
	seconds := fs.Float64("seconds", 8, "with -workload: keep running repetitions until this much engine time is measured")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced repetition")
	child := fs.String("child", "", "internal: run the one repetition this JSON request describes")
	compare := fs.Bool("compare", false, "compare two result files: cmfl-bench -compare a.json b.json")
	benchJSON := fs.String("benchmark-json", "BENCHMARK.json", "with -compare: the file holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *child != "":
		var req repRequest
		if err := json.Unmarshal([]byte(*child), &req); err != nil {
			return fmt.Errorf("-child request: %w", err)
		}
		res, err := runRep(req)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare wants exactly two result files")
		}
		return compareFiles(stdout, *benchJSON, fs.Arg(0), fs.Arg(1))
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	case *workload != "":
		return runDriver(stdout, stderr, *workload, *scale, *seed, *seconds, *trace == 1, spawnRep)
	}
	return runFull(stdout, stderr, *scale, *seed, *reps, *out)
}

// runFull runs every workload and writes the result file.
func runFull(stdout, stderr io.Writer, scale string, seed int64, reps int, out string) error {
	if reps < 1 {
		return fmt.Errorf("-reps %d: need at least one repetition", reps)
	}
	doc := resultFile{Schema: 1, Cohort: currentCohort(seed, scale)}
	fmt.Fprintf(stdout, "cmfl-bench: %s, %s, nproc %d, GOMAXPROCS %d, seed %d, scale %s\n",
		doc.Cohort.GoVersion, doc.Cohort.CPUModel, doc.Cohort.NProc, doc.Cohort.GOMAXPROCS, seed, scale)
	correct := true
	for _, name := range workloadNames {
		w, err := runWorkload(name, runOptions{
			Scale: scale, Seed: seed, Reps: reps, Traced: true,
			TraceDir: filepath.Dir(out), Run: spawnRep, Progress: stderr,
		})
		if err != nil {
			return err
		}
		printWorkload(stdout, w)
		correct = correct && w.correct()
		doc.Workloads = append(doc.Workloads, *w)
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", out)
	if !correct {
		return errIncorrect
	}
	return nil
}

// driverResult is the one JSON object the benchmark contract wants as the
// last line of standard output.
type driverResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]layerValue `json:"metrics"`
}

// runDriver measures one workload for about `seconds` of engine time.
// Untraced (-trace 0) it reports every end-to-end metric; traced, it runs
// one untraced and one traced repetition (the pair gives the tracing
// overhead and cross-checks the final parameters) and reports every
// per-layer metric, 0 standing for a layer the workload bypasses.
func runDriver(stdout, stderr io.Writer, workload, scale string, seed int64, seconds float64, traced bool, run repRunner) error {
	o := runOptions{Scale: scale, Seed: seed, Seconds: seconds, Run: run, Progress: stderr}
	if traced {
		o.Seconds, o.Reps, o.Traced = 0, 1, true
	}
	w, err := runWorkload(workload, o)
	if err != nil {
		return err
	}
	printWorkload(stdout, w)
	res := driverResult{Correct: w.correct(), Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]layerValue{}}
	if traced {
		for _, def := range perLayer {
			res.Metrics[def.Name] = layerValue{Value: w.Layers[layerOf(def.Name)][def.Name].Value, Unit: def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			res.Metrics[def.Name] = layerValue{Value: w.EndToEnd[def.Name].Median, Unit: def.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("driver result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
