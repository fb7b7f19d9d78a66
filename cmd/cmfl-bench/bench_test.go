package main

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/fl"
)

const benchmarkJSONPath = "../../BENCHMARK.json"

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(benchmarkJSONPath, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON pins the benchmark's own lists to
// BENCHMARK.json: same workloads with the same reasons, same metrics with
// the same units and directions, none missing, none extra.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
			continue
		}
		s, err := lookupSpec(w.Name, scaleFull)
		if err != nil {
			t.Fatal(err)
		}
		if w.Why != s.Why {
			t.Errorf("%s: why differs:\n  BENCHMARK.json: %s\n  benchmark:      %s", w.Name, w.Why, s.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: name or why outside the contract's limits", w.Name)
		}
	}

	seen := map[string]bool{}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	var e2e, layers []metricDef
	hasSetup := false
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// layersOf lists the layers each workload exercises; the rest it bypasses
// and must omit, not zero-fill.
var layersOf = map[string][]string{
	"fl_cnn_gated":    {"tensor", "nn", "core", "fl"},
	"emu_wide_topk":   {"tensor", "nn", "compress", "shard", "emu"},
	"emu_wide_gated":  {"tensor", "nn", "core", "shard", "emu"},
	"sim_100k_narrow": {"tensor", "nn", "core", "sim", "xrand"},
	"sim_wide_q8":     {"tensor", "nn", "core", "compress", "sim", "xrand"},
}

// commonLayers are reported by every workload, whatever it exercises.
var commonLayers = []string{"telemetry", "dataset", "runtime", "engine", "attribution", "trace"}

// smokeResults runs every workload once at smoke scale, in-process, two
// untraced repetitions and one traced; the tests below share the result.
var smokeResults = sync.OnceValues(func() (map[string]*workloadResult, error) {
	out := map[string]*workloadResult{}
	for _, name := range workloadNames {
		w, err := runWorkload(name, runOptions{Scale: scaleSmoke, Seed: 1, Reps: 2, Traced: true, Run: runRep, Progress: io.Discard})
		if err != nil {
			return nil, err
		}
		out[name] = w
	}
	return out, nil
})

// TestSmokeRun runs all five workloads shrunk to smoke scale and asserts
// that every correctness check passes, that every end-to-end metric is
// reported and positive, and that the traced repetition reports exactly the
// per-layer metrics of the layers the workload exercises.
func TestSmokeRun(t *testing.T) {
	results, err := smokeResults()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w := results[name]
		for _, c := range w.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
		if !w.correct() {
			t.Errorf("%s: %d of %d repetitions valid", name, w.ValidReps, w.Reps)
		}
		if len(w.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", name, len(w.EndToEnd), len(endToEnd))
		}
		for _, def := range endToEnd {
			if st, ok := w.EndToEnd[def.Name]; !ok || !(st.Median > 0) || st.N != w.Reps || st.Unit != def.Unit {
				t.Errorf("%s: end-to-end metric %s missing, not positive or miscounted: %+v", name, def.Name, st)
			}
		}

		want := map[string]bool{}
		for _, layer := range append(append([]string(nil), layersOf[name]...), commonLayers...) {
			want[layer] = true
		}
		for _, def := range perLayer {
			_, got := w.Layers[layerOf(def.Name)][def.Name]
			if got != want[layerOf(def.Name)] {
				t.Errorf("%s: per-layer metric %s reported=%v, want %v", name, def.Name, got, want[layerOf(def.Name)])
			}
		}
		for layer, metrics := range w.Layers {
			for metric := range metrics {
				if unitOf(metric) == "" {
					t.Errorf("%s: layer %s emits %q, which BENCHMARK.json does not list", name, layer, metric)
				}
			}
		}
		if len(w.TopLayers) < 3 {
			t.Errorf("%s: only %d layers ranked by time", name, len(w.TopLayers))
		}
	}
}

// TestWrapperFidelity: the traced repetition must be the same computation
// as the untraced ones — same final parameters, upload and skip counts and
// byte counters — and its gate must have seen every decision.
func TestWrapperFidelity(t *testing.T) {
	withheld := 0
	for _, name := range workloadNames {
		plain, err := runRep(repRequest{Workload: name, Scale: scaleSmoke, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRep(repRequest{Workload: name, Scale: scaleSmoke, Seed: 7, Traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if !plain.valid() || !traced.valid() {
			t.Fatalf("%s: invalid repetition: %v / %v", name, plain.Checks, traced.Checks)
		}
		type ledger struct {
			sha                                    string
			attempted, uploads, skips, drops, byts int64
		}
		p := ledger{plain.ParamsSHA256, plain.Attempted, plain.Uploads, plain.Skips, plain.Dropped, plain.CumUplinkBytes}
		q := ledger{traced.ParamsSHA256, traced.Attempted, traced.Uploads, traced.Skips, traced.Dropped, traced.CumUplinkBytes}
		if p != q {
			t.Errorf("%s: traced run diverged from untraced:\n  untraced %+v\n  traced   %+v", name, p, q)
		}
		if plain.Spec.Gate == nil {
			continue
		}
		if plain.Skips > 0 && plain.Uploads > 0 {
			withheld++
		}
		// Stragglers were gated too, but never reported back.
		if calls := traced.Counts["gate_calls"]; calls != traced.Attempted {
			t.Errorf("%s: gate wrapper saw %d decisions, engine made %d", name, calls, traced.Attempted)
		}
		if traced.Spec.Tier != tierSim && traced.Counts["gate_uploads"] != traced.Uploads {
			t.Errorf("%s: gate wrapper counted %d uploads, engine %d", name, traced.Counts["gate_uploads"], traced.Uploads)
		}
	}
	if withheld == 0 {
		t.Error("no smoke gate both uploaded and withheld, so the comparison above proves nothing about gated runs")
	}
}

// feedbackOnly is a filter with fl.FilterFeedback but no fast path.
type feedbackOnly struct {
	fl.Vanilla
	rounds int
}

func (f *feedbackOnly) ObserveRound(round, uploaded, participants int) { f.rounds++ }

// TestWrapFilterForwardsOptionalInterfaces: the timing wrapper exposes
// fl.SignChecker and fl.FilterFeedback exactly when the inner filter does.
// Dropping the first would make the traced run time the slow Check path;
// dropping the second would silently freeze an adaptive threshold.
func TestWrapFilterForwardsOptionalInterfaces(t *testing.T) {
	adaptive := core.NewAdaptiveFilter(0.5, 0.5)
	fb := &feedbackOnly{}
	for _, tc := range []struct {
		name            string
		inner           fl.UploadFilter
		signs, feedback bool
	}{
		{"vanilla", fl.Vanilla{}, false, false},
		{"cmfl", core.NewFilter(core.Constant(0.5)), true, false},
		{"adaptive", adaptive, true, true},
		{"warm adaptive", warmGate{adaptive, 2}, true, true},
		{"feedback only", fb, false, true},
	} {
		tr := newTracer(4)
		w := wrapFilter(tc.inner, tr)
		_, signs := w.(fl.SignChecker)
		_, feedback := w.(fl.FilterFeedback)
		if signs != tc.signs || feedback != tc.feedback {
			t.Errorf("%s: wrapper has SignChecker=%v FilterFeedback=%v, inner has %v/%v", tc.name, signs, feedback, tc.signs, tc.feedback)
		}
		if w.Name() != tc.inner.Name() {
			t.Errorf("%s: wrapper renamed the filter to %q", tc.name, w.Name())
		}
	}

	// Feedback must reach the inner filter: all uploads against a target of
	// one half pushes an adaptive threshold up.
	before := adaptive.Threshold()
	wrapFilter(adaptive, newTracer(4)).(fl.FilterFeedback).ObserveRound(3, 10, 10)
	if adaptive.Threshold() <= before {
		t.Errorf("ObserveRound through the wrapper left the threshold at %v", adaptive.Threshold())
	}
	wrapFilter(fb, newTracer(4)).(fl.FilterFeedback).ObserveRound(1, 1, 1)
	if fb.rounds != 1 {
		t.Errorf("feedback-only filter observed %d rounds through the wrapper", fb.rounds)
	}

	// The fast path must be the one timed: one CheckSigns, one recorded call.
	tr := newTracer(4)
	sc := wrapFilter(core.NewFilter(core.Constant(0.5)), tr).(fl.SignChecker)
	if _, handled, err := sc.CheckSigns([]float64{1, -1}, []int8{1, 1}, 3); !handled || err != nil {
		t.Fatalf("CheckSigns through the wrapper: handled=%v err=%v", handled, err)
	}
	if got := tr.finish(0, nil).totals[spanGate].calls; got != 1 {
		t.Errorf("one gate decision recorded %d spans", got)
	}
}

// TestDriverResult: with -workload the last line of standard output is one
// JSON object with exactly the contract's keys, holding every end-to-end
// metric untraced and every per-layer metric traced.
func TestDriverResult(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := runDriver(&out, io.Discard, "sim_wide_q8", scaleSmoke, 3, 0.001, traced, runRep); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
			t.Errorf("traced=%v: result keys %s", traced, got)
		}
		var parsed driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, parsed.Correct, parsed.Attempted, parsed.Failed)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(parsed.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(parsed.Metrics), len(want))
		}
		for _, def := range want {
			if v, ok := parsed.Metrics[def.Name]; !ok || v.Unit != def.Unit {
				t.Errorf("traced=%v: metric %s missing or in unit %q", traced, def.Name, v.Unit)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 11, 29, 16, 22})
	if !core.ApproxEqual(q1, 3.5, 1e-12) || !core.ApproxEqual(med, 13.5, 1e-12) || !core.ApproxEqual(q3, 31, 1e-12) {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
