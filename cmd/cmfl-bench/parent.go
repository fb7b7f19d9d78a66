package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// cohort is what two result files must share before their numbers may be
// compared (SNIPPETS.md Snippet 3: mixed cohorts are invalid).
type cohort struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
}

func currentCohort(seed int64, scale string) cohort {
	return cohort{
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Scale: scale,
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// stat summarises one end-to-end metric over a workload's untraced
// repetitions: the median, the quartiles (as Python's
// statistics.quantiles(values, n=4) computes them) and the sample count.
type stat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
	// Samples is the pooled sample count behind a percentile metric
	// (round_wall_p50_ms pools every round of every repetition).
	Samples int `json:"samples,omitempty"`
}

// quartiles returns Q1, median and Q3 by the exclusive method of Python's
// statistics.quantiles(values, n=4), so spreads computed here agree with
// the driver's. Fewer than two values have no spread.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func newStat(def metricDef, values []float64) stat {
	q1, med, q3 := quartiles(values)
	return stat{Unit: def.Unit, Better: def.Better, Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// topLayer is one row of the per-workload work queue: a layer and its
// modelled share of the measured round.
type topLayer struct {
	Layer      string  `json:"layer"`
	MSPerRound float64 `json:"ms_per_round"`
	Share      float64 `json:"share_of_round"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name         string `json:"name"`
	ScenarioHash string `json:"scenario_hash"`
	Spec         spec   `json:"spec"`
	Dim          int    `json:"dim"`

	Reps         int       `json:"reps"`
	ValidReps    int       `json:"valid_reps"`
	RepWallS     []float64 `json:"rep_wall_s"`
	ParamsSHA256 string    `json:"params_sha256"`
	Checks       []check   `json:"checks"`

	// Attempted and Failed are client-rounds summed over the untraced
	// repetitions; Failed counts every client-round of an invalid one.
	Attempted int64 `json:"attempted_client_rounds"`
	Failed    int64 `json:"failed_client_rounds"`

	EndToEnd map[string]stat `json:"end_to_end"`
	// Counts repeat exactly from run to run on one commit: -compare
	// requires them identical for an A/A pair.
	Counts map[string]int64 `json:"counts"`

	// Traced repetition: per-layer metrics grouped by layer, with bypassed
	// layers absent, and the layers ranked by modelled time per round.
	Layers       map[string]map[string]layerValue `json:"layers,omitempty"`
	TopLayers    []topLayer                       `json:"top_layers,omitempty"`
	Unattributed bool                             `json:"unattributed,omitempty"`
}

// correct reports whether every repetition was valid and every
// cross-repetition check held.
func (w *workloadResult) correct() bool {
	for _, c := range w.Checks {
		if !c.OK {
			return false
		}
	}
	return w.ValidReps == w.Reps && w.Reps > 0
}

// resultFile is the document a full run writes (results/BENCH_<pr>.json).
type resultFile struct {
	Schema    int              `json:"schema"`
	Cohort    cohort           `json:"cohort"`
	Workloads []workloadResult `json:"workloads"`
}

// runOptions sizes one workload's measurement.
type runOptions struct {
	Scale string
	Seed  int64
	// Reps untraced repetitions are run; when Seconds is positive,
	// repetitions continue instead until their engine time reaches it.
	Reps    int
	Seconds float64
	// Traced adds one traced repetition after the untraced ones.
	Traced bool
	// TraceDir receives trace_<workload>.jsonl from the traced repetition.
	TraceDir string
	Run      repRunner
	Progress io.Writer
}

// runWorkload runs a workload's untraced repetitions and, if asked, one
// traced repetition, then folds them into a workloadResult.
func runWorkload(name string, o runOptions) (*workloadResult, error) {
	req := repRequest{Workload: name, Scale: o.Scale, Seed: o.Seed}
	var reps []*repResult
	var measured float64
	for len(reps) < o.Reps || measured < o.Seconds {
		r, err := o.Run(req)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		measured += r.WallS
		fmt.Fprintf(o.Progress, "  %s rep %d: %.2fs wall, valid=%v %s\n", name, len(reps), r.WallS, r.valid(), r.Err)
		if !r.valid() && o.Seconds > 0 {
			break // a failing run is reported, not retried until the clock runs out
		}
	}
	var traced *repResult
	if o.Traced {
		req.Traced = true
		if o.TraceDir != "" {
			if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
				return nil, fmt.Errorf("trace dir: %w", err)
			}
			req.TraceOut = filepath.Join(o.TraceDir, "trace_"+name+".jsonl")
		}
		r, err := o.Run(req)
		if err != nil {
			return nil, err
		}
		traced = r
		fmt.Fprintf(o.Progress, "  %s traced rep: %.2fs wall, valid=%v %s\n", name, r.WallS, r.valid(), r.Err)
	}
	return foldWorkload(reps, traced), nil
}

// foldWorkload aggregates repetitions. End-to-end metrics come only from
// the untraced repetitions; the traced one contributes the layers block and
// joins the params_sha256 identity check.
func foldWorkload(reps []*repResult, traced *repResult) *workloadResult {
	first := reps[0]
	w := &workloadResult{
		Name: first.Workload, ScenarioHash: first.ScenarioHash, Spec: first.Spec, Dim: first.Dim,
		Reps: len(reps), ParamsSHA256: first.ParamsSHA256,
		EndToEnd: map[string]stat{}, Counts: map[string]int64{},
	}

	// Per-check verdicts across every repetition, then the cross-repetition
	// identity of the final parameters.
	all := reps
	if traced != nil {
		all = append(append([]*repResult(nil), reps...), traced)
	}
	var order []string
	verdict := map[string]*check{}
	for i, r := range all {
		if r.Err != "" {
			w.Checks = append(w.Checks, check{Name: fmt.Sprintf("rep_%d_ran", i+1), OK: false, Detail: r.Err})
		}
		for _, c := range r.Checks {
			v, seen := verdict[c.Name]
			if !seen {
				v = &check{Name: c.Name, OK: true, Detail: c.Detail}
				verdict[c.Name] = v
				order = append(order, c.Name)
			}
			if !c.OK && v.OK {
				v.OK, v.Detail = false, fmt.Sprintf("rep %d: %s", i+1, c.Detail)
			}
		}
	}
	for _, name := range order {
		w.Checks = append(w.Checks, *verdict[name])
	}
	same := true
	for _, r := range all {
		same = same && r.ParamsSHA256 == first.ParamsSHA256
	}
	w.Checks = append(w.Checks, check{Name: "params_sha256_identical", OK: same && first.ParamsSHA256 != "",
		Detail: fmt.Sprintf("%d repetitions (traced included) agree on %.12s…", len(all), first.ParamsSHA256)})

	per := map[string][]float64{}
	var pooledRounds []float64
	for _, r := range reps {
		w.RepWallS = append(w.RepWallS, r.WallS)
		w.Attempted += r.Attempted
		completed := r.Attempted - r.Dropped
		if r.valid() {
			w.ValidReps++
		} else {
			w.Failed += r.Attempted
			completed = 0
		}
		if r.Err != "" {
			continue // an errored run measured nothing
		}
		cr := float64(r.Attempted)
		pooledRounds = append(pooledRounds, r.RoundWallMS...)
		per["setup_s"] = append(per["setup_s"], quantile(r.SetupS, 0.5))
		per["client_rounds_per_s"] = append(per["client_rounds_per_s"], cr/r.WallS)
		per["round_wall_p50_ms"] = append(per["round_wall_p50_ms"], quantile(r.RoundWallMS, 0.5))
		per["cpu_ms_per_client_round"] = append(per["cpu_ms_per_client_round"], r.CPUS*1e3/cr)
		per["uplink_bytes_per_client_round"] = append(per["uplink_bytes_per_client_round"], float64(r.CumUplinkBytes)/cr)
		per["final_accuracy"] = append(per["final_accuracy"], r.FinalAccuracy)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], r.PeakRSSMB)
		per["allocs_per_client_round"] = append(per["allocs_per_client_round"], float64(r.Mallocs)/cr)
		per["completed_client_round_ratio"] = append(per["completed_client_round_ratio"], float64(completed)/cr)
	}
	for _, def := range endToEnd {
		st := newStat(def, per[def.Name])
		if def.Name == "round_wall_p50_ms" {
			st.Median, st.Samples = quantile(pooledRounds, 0.5), len(pooledRounds)
		}
		w.EndToEnd[def.Name] = st
	}
	w.Counts["client_rounds"] = first.Attempted
	w.Counts["uploads"], w.Counts["skips"], w.Counts["dropped"] = first.Uploads, first.Skips, first.Dropped
	w.Counts["cum_uplink_bytes"] = first.CumUplinkBytes

	if traced != nil && traced.Layers != nil {
		for k, v := range traced.Counts {
			w.Counts[k] = v
		}
		if untraced := quantile(w.RepWallS, 0.5); untraced > 0 {
			traced.Layers["trace.overhead_ratio"] = traced.WallS / untraced
		}
		w.Layers = map[string]map[string]layerValue{}
		for name, v := range traced.Layers {
			layer := layerOf(name)
			if w.Layers[layer] == nil {
				w.Layers[layer] = map[string]layerValue{}
			}
			w.Layers[layer][name] = layerValue{Value: v, Unit: unitOf(name)}
		}
		p50 := quantile(traced.RoundWallMS, 0.5)
		for layer, ms := range traced.LayerMS {
			w.TopLayers = append(w.TopLayers, topLayer{Layer: layer, MSPerRound: ms, Share: ms / p50})
		}
		sort.Slice(w.TopLayers, func(i, j int) bool {
			a, b := w.TopLayers[i], w.TopLayers[j]
			if a.MSPerRound > b.MSPerRound || a.MSPerRound < b.MSPerRound {
				return a.MSPerRound > b.MSPerRound
			}
			return a.Layer < b.Layer
		})
		cov := traced.Layers["attribution.coverage"]
		w.Unattributed = cov < 0.6 || cov > 1.4
	}
	return w
}

// printWorkload prints every metric of a workload by name, with its unit.
func printWorkload(out io.Writer, w *workloadResult) {
	fmt.Fprintf(out, "\n== %s  (%s tier, %d dims, %d reps, scenario %.12s)\n", w.Name, w.Spec.Tier, w.Dim, w.Reps, w.ScenarioHash)
	fmt.Fprintf(out, "  %-32s %14s %-8s %14s %14s %4s\n", "end-to-end metric", "median", "unit", "q1", "q3", "n")
	for _, def := range endToEnd {
		st := w.EndToEnd[def.Name]
		n := fmt.Sprint(st.N)
		if st.Samples > 0 {
			n = fmt.Sprintf("%d (%d pooled)", st.N, st.Samples)
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-8s %14.6g %14.6g %4s\n", def.Name, st.Median, st.Unit, st.Q1, st.Q3, n)
	}
	if w.Layers != nil {
		fmt.Fprintf(out, "  %-32s %14s %-8s\n", "per-layer metric (traced)", "value", "unit")
		for _, def := range perLayer {
			if v, ok := w.Layers[layerOf(def.Name)][def.Name]; ok {
				fmt.Fprintf(out, "  %-32s %14.6g %-8s\n", def.Name, v.Value, v.Unit)
			}
		}
		fmt.Fprintf(out, "  layers by modelled time per round:")
		for _, t := range w.TopLayers {
			fmt.Fprintf(out, "  %s %.3gms (%.0f%%)", t.Layer, t.MSPerRound, 100*t.Share)
		}
		if w.Unattributed {
			fmt.Fprint(out, "  [unattributed: coverage outside 0.6–1.4]")
		}
		fmt.Fprintln(out)
	}
	for _, c := range w.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(out, "  check %s %-26s %s\n", mark, c.Name, c.Detail)
	}
}
