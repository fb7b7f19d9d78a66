package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictOf(t *testing.T) {
	st := func(values ...float64) stat { return newStat(metricDef{}, values) }
	for _, tc := range []struct {
		name       string
		base, cand stat
		better     string
		bound      float64
		want       string
	}{
		{"inside the bound", st(100, 101, 102, 103, 104), st(104, 105, 106, 107, 108), lower, 0.10, verdictUnchanged},
		{"slower beyond the bound", st(100, 101, 102, 103, 104), st(120, 121, 122, 123, 124), lower, 0.10, verdictRegressed},
		{"faster beyond the bound", st(100, 101, 102, 103, 104), st(80, 81, 82, 83, 84), lower, 0.10, verdictImproved},
		{"throughput down is worse", st(100, 101, 102, 103, 104), st(80, 81, 82, 83, 84), higher, 0.10, verdictRegressed},
		{"spread wider than the bound", st(70, 90, 100, 110, 130), st(75, 95, 105, 115, 135), lower, 0.10, verdictUnresolved},
		{"wide spread but every run better", st(70, 90, 100, 110, 130), st(30, 40, 50, 55, 60), lower, 0.10, verdictImproved},
		{"wide spread but every run worse", st(30, 40, 50, 55, 60), st(70, 90, 100, 110, 130), lower, 0.10, verdictRegressed},
		{"nothing measured", st(), st(1, 2, 3), lower, 0.10, verdictUnresolved},
	} {
		if got, _ := verdictOf(tc.base, tc.cand, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles doctors copies of a real (smoke) result file: an
// identical pair is unchanged on every metric × workload pair with
// identical counts; a slowed candidate regresses and fails; any cohort
// difference is refused before a single number is compared.
func TestCompareFiles(t *testing.T) {
	results, err := smokeResults()
	if err != nil {
		t.Fatal(err)
	}
	build := func(doctor func(*resultFile)) string {
		doc := resultFile{Schema: 1, Cohort: currentCohort(1, scaleSmoke)}
		for _, name := range workloadNames {
			w := *results[name]
			w.EndToEnd = map[string]stat{}
			for k, st := range results[name].EndToEnd {
				// Smoke timings are microseconds of noise; give every metric
				// a tight spread so only the doctoring decides the verdict.
				med := st.Median
				w.EndToEnd[k] = newStat(metricDef{Unit: st.Unit, Better: st.Better}, []float64{med * 0.99, med, med, med, med * 1.01})
			}
			w.Counts = map[string]int64{}
			for k, v := range results[name].Counts {
				w.Counts[k] = v
			}
			doc.Workloads = append(doc.Workloads, w)
		}
		if doctor != nil {
			doctor(&doc)
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := build(nil)

	var out bytes.Buffer
	if err := compareFiles(&out, benchmarkJSONPath, base, build(nil)); err != nil {
		t.Fatalf("A/A comparison failed: %v\n%s", err, out.String())
	}
	pairs := len(endToEnd) * len(workloadNames)
	if got := strings.Count(out.String(), verdictUnchanged) - 1; got != pairs { // the tally line says "unchanged" once more
		t.Errorf("A/A comparison: %d unchanged rows, want %d\n%s", got, pairs, out.String())
	}
	if got := strings.Count(out.String(), "counts and params_sha256: identical"); got != len(workloadNames) {
		t.Errorf("A/A comparison: %d workloads with identical counts, want %d", got, len(workloadNames))
	}

	out.Reset()
	slowed := build(func(d *resultFile) {
		st := d.Workloads[2].EndToEnd["round_wall_p50_ms"]
		for i := range st.Values {
			st.Values[i] *= 2
		}
		d.Workloads[2].EndToEnd["round_wall_p50_ms"] = newStat(metricDef{Unit: st.Unit, Better: st.Better}, st.Values)
		d.Workloads[2].Counts["uploads"]++
	})
	if err := compareFiles(&out, benchmarkJSONPath, base, slowed); !errors.Is(err, errRegressed) {
		t.Errorf("doubled round time: error %v, want errRegressed", err)
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "DIFFER: uploads") {
		t.Errorf("doubled round time and a changed count not both reported:\n%s", out.String())
	}

	// Set-up: 2 ms doubling to 4 ms is scheduler noise, 0.2 s doubling is not.
	double := func(w *workloadResult) {
		st := w.EndToEnd["setup_s"]
		for i := range st.Values {
			st.Values[i] *= 2
		}
		w.EndToEnd["setup_s"] = newStat(metricDef{Unit: st.Unit, Better: st.Better}, st.Values)
	}
	real := func(d *resultFile) { // smoke set-ups are all tiny; give two workloads full-scale ones
		for i, s := range []float64{0.002, 0.2} {
			d.Workloads[i].EndToEnd["setup_s"] = newStat(metricDef{Unit: "s", Better: lower}, []float64{s * 0.99, s, s, s, s * 1.01})
		}
	}
	out.Reset()
	err = compareFiles(&out, benchmarkJSONPath, build(real), build(func(d *resultFile) { real(d); double(&d.Workloads[0]); double(&d.Workloads[1]) }))
	if !errors.Is(err, errRegressed) || strings.Count(out.String(), verdictRegressed) != 2 { // one row, one tally line
		t.Errorf("doubled set-ups of 2 ms and 0.2 s: error %v, want exactly the 0.2 s one regressed\n%s", err, out.String())
	}

	for name, doctor := range map[string]func(*resultFile){
		"go version":    func(d *resultFile) { d.Cohort.GoVersion = "go0.0" },
		"cpu model":     func(d *resultFile) { d.Cohort.CPUModel = "abacus" },
		"GOMAXPROCS":    func(d *resultFile) { d.Cohort.GOMAXPROCS += 2 },
		"seed":          func(d *resultFile) { d.Cohort.Seed = 99 },
		"scale":         func(d *resultFile) { d.Cohort.Scale = scaleFull },
		"scenario hash": func(d *resultFile) { d.Workloads[0].ScenarioHash = "0000" },
		"workload set":  func(d *resultFile) { d.Workloads = d.Workloads[:3] },
	} {
		out.Reset()
		err := compareFiles(&out, benchmarkJSONPath, base, build(doctor))
		if !errors.Is(err, errMixedCohorts) || !strings.Contains(err.Error(), strings.Fields(name)[0]) {
			t.Errorf("%s differs: error %v, want errMixedCohorts naming it", name, err)
		}
		if out.Len() > 0 {
			t.Errorf("%s differs: rows printed before the refusal", name)
		}
	}
}
