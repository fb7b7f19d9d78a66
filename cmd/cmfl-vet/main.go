// Command cmfl-vet runs the repo's static-analysis suite (internal/lint):
// repo-specific analyzers that machine-check the invariants the benchmarks
// and telemetry schema rely on — allocation-free hot paths (transitively,
// through the call graph), deterministic aggregation order, exact or
// pinned float folds, wall-clock-free engines, the cmfl_* metric contract,
// handled errors, epsilon float comparisons, goroutine and mutex
// discipline in the emulated engine, joinable goroutines that can leave
// their loops, seed-provenance taint, client/server wire-protocol duality,
// exhaustive dispatch over the protocol's constant families, and the
// baseline of the API an importer of the module can reach. -h lists the
// analyzers; -stats counts each one's subjects, the sites where its rule
// applied and held.
//
// Usage:
//
//	cmfl-vet [-json] [-sarif file] [-stats] [-budget file]
//	         [-write-api-baseline] [packages]
//
// Packages default to ./... (every buildable package of the module,
// excluding testdata). Directories and import-path patterns narrow the
// run; testdata fixture packages may be named explicitly, which is how the
// suite tests itself. Every run loads and analyzes its packages from
// scratch: module code is parsed and type-checked from source, the
// standard library is read from the go command's export data (one
// `go list -export -deps`, served from Go's build cache once `go vet` or
// `go build` has run).
//
// -sarif writes the run's findings as a SARIF 2.1.0 log to the given file
// ("-" for stdout), the format GitHub code scanning ingests.
//
// -write-api-baseline regenerates benchmarks/api_baseline.json from the
// run's exported-API facts; do this for an intentional break, and add a
// //cmfl:api-change marker saying how callers migrate.
//
// Exit status: 0 when clean, 1 when findings were reported or the
// suppression budget is exceeded, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cmfl/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON document")
	sarifOut := flag.String("sarif", "", "write findings as a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	stats := flag.Bool("stats", false, "report load and wall time, and per-analyzer time, findings and subjects")
	writeBaseline := flag.Bool("write-api-baseline", false, "regenerate benchmarks/api_baseline.json from this run's exported-API facts")
	budgetFile := flag.String("budget", "", "JSON budget file; fail when suppressions exceed its max_suppressed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cmfl-vet [-json] [-sarif file] [-stats] [-budget file] [-write-api-baseline] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	runOpts := lint.RunOptions{
		Stats:            *stats || *jsonOut,
		WriteAPIBaseline: *writeBaseline,
	}
	res, err := lint.RunModule(cwd, flag.Args(), lint.All(), runOpts)
	if err != nil {
		fatal(err)
	}
	if *sarifOut != "" {
		if err := writeSARIFFile(*sarifOut, cwd, res); err != nil {
			fatal(err)
		}
	}
	if !*stats {
		res.Stats = nil // only attach to -json output when explicitly asked
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
		if len(res.Findings) > 0 || res.Suppressed > 0 {
			fmt.Fprintf(os.Stderr, "cmfl-vet: %d finding(s), %d suppressed\n", len(res.Findings), res.Suppressed)
		}
		if *stats && res.Stats != nil {
			printStats(res.Stats)
		}
	}

	exit := 0
	if len(res.Findings) > 0 {
		exit = 1
	}
	if *budgetFile != "" && !checkBudget(*budgetFile, res.Suppressed) {
		exit = 1
	}
	os.Exit(exit)
}

// writeSARIFFile renders res as SARIF 2.1.0 to path ("-" for stdout).
func writeSARIFFile(path, root string, res lint.Result) error {
	if path == "-" {
		return lint.WriteSARIF(os.Stdout, root, lint.All(), res)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := lint.WriteSARIF(f, root, lint.All(), res)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func printStats(s *lint.RunStats) {
	fmt.Fprintf(os.Stderr, "cmfl-vet: load %dms, wall %dms\n", s.LoadMS, s.WallMS)
	for _, a := range s.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-20s %6dms  %d finding(s)  %d subject(s)\n", a.Name, a.MS, a.Findings, a.Subjects)
	}
}

// lintBudget is benchmarks/lint_budget.json: the ceiling on accepted
// //cmfl:lint-ignore suppressions. Raising it is a reviewed change.
type lintBudget struct {
	MaxSuppressed int `json:"max_suppressed"`
}

func checkBudget(path string, suppressed int) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var b lintBudget
	if err := json.Unmarshal(data, &b); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	if suppressed > b.MaxSuppressed {
		fmt.Fprintf(os.Stderr, "cmfl-vet: %d suppression(s) exceed the budget of %d in %s: fix the findings or raise the budget with justification\n",
			suppressed, b.MaxSuppressed, path)
		return false
	}
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmfl-vet:", err)
	os.Exit(2)
}
