package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of one metric × workload pair.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// errMixedCohorts refuses a comparison across Go versions, CPUs,
// GOMAXPROCS, seeds, scales or scenario hashes.
var errMixedCohorts = errors.New("mixed cohorts")

// setupNoiseS is ISSUE 11's absolute floor under the set-up bound: set-up
// times closer than this are unchanged whatever their ratio (the emu
// workloads build in 2 ms, where 25% is 0.5 ms of scheduler noise).
const setupNoiseS = 0.05

// errRegressed makes -compare exit non-zero when any pair regressed.
var errRegressed = errors.New("regression beyond bound")

// benchmarkFile is the part of BENCHMARK.json -compare needs: the bound by
// which each end-to-end metric's median may worsen, as a share of the
// baseline's median.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(doc, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies each metric's bound to a baseline and a candidate
// result file, printing one row per metric × workload.
func compareFiles(out io.Writer, benchPath, basePath, candPath string) error {
	var bench benchmarkFile
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	var base, cand resultFile
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(candPath, &cand); err != nil {
		return err
	}
	if diffs := cohortDiffs(&base, &cand); len(diffs) > 0 {
		return fmt.Errorf("%w: refusing to compare %s with %s:\n  %s", errMixedCohorts, basePath, candPath, strings.Join(diffs, "\n  "))
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	tally := map[string]int{}
	for i := range base.Workloads {
		bw, cw := &base.Workloads[i], &cand.Workloads[i]
		fmt.Fprintf(out, "\n== %s\n", bw.Name)
		fmt.Fprintf(out, "  %-30s %-8s %12s %12s %12s %3s | %12s %12s %12s %3s | %9s %6s  %s\n",
			"metric", "unit", "base median", "q1", "q3", "n", "cand median", "q1", "q3", "n", "better by", "bound", "verdict")
		for _, def := range endToEnd {
			b, c := bw.EndToEnd[def.Name], cw.EndToEnd[def.Name]
			v, worse := verdictOf(b, c, def.Better, bounds[def.Name])
			if def.Name == "setup_s" && math.Abs(c.Median-b.Median) < setupNoiseS && math.Max(b.Q3-b.Q1, c.Q3-c.Q1) < setupNoiseS {
				v = verdictUnchanged
			}
			tally[v]++
			fmt.Fprintf(out, "  %-30s %-8s %12.6g %12.6g %12.6g %3d | %12.6g %12.6g %12.6g %3d | %+8.2f%% %5.1f%%  %s\n",
				def.Name, def.Unit, b.Median, b.Q1, b.Q3, b.N, c.Median, c.Q1, c.Q3, c.N, -100*worse, 100*bounds[def.Name], v)
		}
		fmt.Fprintf(out, "  counts and params_sha256: %s\n", exactDiffs(bw, cw))
	}
	fmt.Fprintf(out, "\n%d improved, %d unchanged, %d regressed, %d unresolved\n",
		tally[verdictImproved], tally[verdictUnchanged], tally[verdictRegressed], tally[verdictUnresolved])
	if tally[verdictRegressed] > 0 {
		return errRegressed
	}
	return nil
}

// cohortDiffs lists every way two result files are not the same cohort.
func cohortDiffs(a, b *resultFile) []string {
	var diffs []string
	note := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", what, x, y))
		}
	}
	note("go version", a.Cohort.GoVersion, b.Cohort.GoVersion)
	note("cpu model", a.Cohort.CPUModel, b.Cohort.CPUModel)
	note("GOMAXPROCS", a.Cohort.GOMAXPROCS, b.Cohort.GOMAXPROCS)
	note("seed", a.Cohort.Seed, b.Cohort.Seed)
	note("scale", a.Cohort.Scale, b.Cohort.Scale)
	note("workload count", len(a.Workloads), len(b.Workloads))
	if len(a.Workloads) == len(b.Workloads) {
		for i := range a.Workloads {
			note(fmt.Sprintf("workload %d", i), a.Workloads[i].Name, b.Workloads[i].Name)
			note(a.Workloads[i].Name+" scenario hash", a.Workloads[i].ScenarioHash, b.Workloads[i].ScenarioHash)
		}
	}
	return diffs
}

// verdictOf judges a candidate against a baseline. worse is the share of
// the baseline's median by which the candidate's median is worse (negative
// when better). A change inside the bound is unchanged; where either
// side's quartile spread exceeds the bound the pair is unresolved, unless
// every run of one side beats every run of the other.
func verdictOf(base, cand stat, better string, bound float64) (verdict string, worse float64) {
	if base.N == 0 || cand.N == 0 || !(base.Median > 0) {
		return verdictUnresolved, 0 // every metric is positive; a zero median is a run that measured nothing
	}
	worse = (cand.Median - base.Median) / base.Median
	if better == higher {
		worse = -worse
	}
	spread := math.Max(spreadOf(base), spreadOf(cand))
	if spread > bound {
		switch {
		case separated(cand, base, better) && worse < -bound:
			return verdictImproved, worse
		case separated(base, cand, better) && worse > bound:
			return verdictRegressed, worse
		}
		return verdictUnresolved, worse
	}
	switch {
	case worse > bound:
		return verdictRegressed, worse
	case worse < -bound:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// spreadOf is the quartile distance as a share of the median.
func spreadOf(s stat) float64 {
	if !(s.Median > 0) {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// separated reports whether every run of x reads better than every run of y.
func separated(x, y stat, better string) bool {
	xs, ys := append([]float64(nil), x.Values...), append([]float64(nil), y.Values...)
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	if better == higher {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// exactDiffs names the counts that differ between two runs of a workload;
// on one commit with one seed none may.
func exactDiffs(a, b *workloadResult) string {
	var diffs []string
	if a.ParamsSHA256 != b.ParamsSHA256 {
		diffs = append(diffs, "params_sha256")
	}
	keys := map[string]bool{}
	for k := range a.Counts {
		keys[k] = true
	}
	for k := range b.Counts {
		keys[k] = true
	}
	for k := range keys {
		if a.Counts[k] != b.Counts[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, a.Counts[k], b.Counts[k]))
		}
	}
	if len(diffs) == 0 {
		return "identical"
	}
	sort.Strings(diffs)
	return "DIFFER: " + strings.Join(diffs, ", ")
}
