package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
)

// miniMNIST shrinks the quick preset to test scale (a couple of seconds).
func miniMNIST() *MNISTSetup {
	s := QuickMNIST()
	s.Clients = 8
	s.SamplesPerClient = 20
	s.TestSamples = 100
	s.Epochs = 2
	s.Batch = 4
	s.Rounds = 10
	s.OutlierClients = 2
	s.AccuracyTargets = []float64{0.2, 0.3}
	return s
}

func miniNWP() *NWPSetup {
	s := QuickNWP()
	s.Dialogue.Roles = 6
	s.Dialogue.SamplesPerRole = 24
	s.Rounds = 12
	s.OutlierRoles = 1
	s.TestPerRole = 6
	s.AccuracyTargets = []float64{0.1, 0.15}
	return s
}

func TestMNISTBuildStructure(t *testing.T) {
	s := miniMNIST()
	fed, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(fed.Shards))
	}
	if len(fed.OutlierIdx) != 2 {
		t.Fatalf("outliers = %d, want 2", len(fed.OutlierIdx))
	}
	if fed.Test.Len() != 100 {
		t.Fatalf("test samples = %d, want 100", fed.Test.Len())
	}
	if fed.Model().NumParams() == 0 {
		t.Fatal("model factory produced empty network")
	}
}

func TestMNISTOutliersAreCorrupted(t *testing.T) {
	s := miniMNIST()
	s.OutlierLabelNoise = 1.0
	fed, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild without corruption and compare label distributions of the
	// outlier shards.
	clean := *s
	clean.OutlierClients = 0
	cfed, err := clean.Build()
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, c := range fed.OutlierIdx {
		for i, y := range fed.Shards[c].Y {
			if y != cfed.Shards[c].Y[i] {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("outlier shards should have randomised labels")
	}
}

func TestNWPBuildStructure(t *testing.T) {
	s := miniNWP()
	fed, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Shards) != 6 {
		t.Fatalf("shards = %d, want 6", len(fed.Shards))
	}
	if fed.Test.Len() != 6*6 {
		t.Fatalf("test samples = %d, want 36", fed.Test.Len())
	}
	if len(fed.OutlierIdx) != 1 {
		t.Fatalf("outliers = %d, want 1", len(fed.OutlierIdx))
	}
}

func TestFig2StabilityShape(t *testing.T) {
	s := miniMNIST()
	s.Rounds = 15
	r, err := Fig2(&Runs{}, s)
	if err != nil {
		t.Fatal(err)
	}
	gaiaRatio, cmflRatio := r.StabilityRatios()
	if math.IsNaN(gaiaRatio) || math.IsNaN(cmflRatio) {
		t.Fatal("stability ratios undefined")
	}
	// The paper's core observation: significance decays much faster than
	// relevance.
	if gaiaRatio >= cmflRatio {
		t.Fatalf("significance ratio %.3f should decay below relevance ratio %.3f", gaiaRatio, cmflRatio)
	}
	if !strings.Contains(r.Render(), "Fig. 2") {
		t.Fatal("render missing title")
	}
}

func TestFig1AndFig3Run(t *testing.T) {
	mn, nw, runs := miniMNIST(), miniNWP(), &Runs{}
	f1, err := Fig1(runs, mn, nw)
	if err != nil {
		t.Fatal(err)
	}
	if f1.MNIST.Len() == 0 || f1.NWP.Len() == 0 {
		t.Fatal("fig1 produced empty divergence CDFs")
	}
	if !strings.Contains(f1.Render(), "Normalized Model Divergence") {
		t.Fatal("fig1 render missing content")
	}
	f3, err := Fig3(runs, mn, nw)
	if err != nil {
		t.Fatal(err)
	}
	if f3.MNIST.Len() == 0 {
		t.Fatal("fig3 produced empty ΔUpdate CDF")
	}
	// Eq. 8 smoothness: the typical ΔUpdate should be bounded.
	if q := f3.MNIST.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("fig3 median ΔUpdate = %v, implausible", q)
	}
	if !strings.Contains(f3.Render(), "ΔUpdate") {
		t.Fatal("fig3 render missing content")
	}
}

func TestFig4RunsAndRenders(t *testing.T) {
	r, err := Fig4(&Runs{}, miniMNIST())
	if err != nil {
		t.Fatal(err)
	}
	if r.Vanilla.Trace == nil || r.Gaia.Trace == nil || r.CMFL.Trace == nil {
		t.Fatal("missing traces")
	}
	out := r.Render()
	if !strings.Contains(out, "accuracy vs uploads") || !strings.Contains(out, "CMFL saving") {
		t.Fatalf("render incomplete:\n%s", out)
	}
	table := Table1Render(r, r)
	if !strings.Contains(table, "Table I") {
		t.Fatal("table render missing title")
	}
}

func TestSweepFindsBest(t *testing.T) {
	s := miniMNIST()
	r, err := Sweep(&Runs{}, s, "cmfl", []float64{0.3, 0.9}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("sweep points = %d, want 2", len(r.Points))
	}
	// 0.9 threshold on this workload blocks almost everything.
	if r.Points[1].UploadFraction >= r.Points[0].UploadFraction {
		t.Fatalf("higher threshold should upload less: %.2f vs %.2f",
			r.Points[1].UploadFraction, r.Points[0].UploadFraction)
	}
	if !strings.Contains(r.Render(), "Threshold sweep") {
		t.Fatal("sweep render missing title")
	}
	best := r.Best()
	if best.Threshold != 0.3 && best.Threshold != 0.9 {
		t.Fatalf("best threshold %v not among swept values", best.Threshold)
	}
}

// TestRunsTrainOnce counts the store's trainings: the figures that analyse
// one run read it, a repeat at the setup's own seed reads the runs Fig. 4
// made, and a sweep at the preset's gate trains nothing new. Only the
// vanilla run keeps ClientParams, for Fig. 1.
func TestRunsTrainOnce(t *testing.T) {
	mn, nw, runs := miniMNIST(), miniNWP(), &Runs{}
	step := func(name string, want int, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if runs.trained != want {
			t.Fatalf("after %s: %d runs trained, want %d", name, runs.trained, want)
		}
	}
	step("figs 1-4", 6, func() error {
		_, err1 := Fig1(runs, mn, nw)
		_, err2 := Fig2(runs, mn)
		_, err3 := Fig3(runs, mn, nw)
		_, err4 := Fig4(runs, mn)
		_, err5 := Fig4(runs, nw)
		return errors.Join(err1, err2, err3, err4, err5)
	})
	step("multiseed", 9, func() error {
		_, err := MultiSeedFig4(runs, mn, []int64{mn.Seed, mn.Seed + 1})
		return err
	})
	step("nwp repeat at its own seed", 9, func() error {
		_, err := MultiSeedFig4(runs, nw, []int64{nw.Seed})
		return err
	})
	step("sweep", 9, func() error {
		_, err := Sweep(runs, mn, "cmfl", []float64{mn.CMFLThreshold}, mn.CMFLDecay)
		return err
	})
	for i, g := range gates(mn.Train()) {
		res, err := runs.result(mn, g)
		if err != nil {
			t.Fatal(err)
		}
		if kept := res.ClientParams != nil; kept != (i == 0) {
			t.Errorf("%s run keeps ClientParams: %v, want %v", g.Alg, kept, i == 0)
		}
	}
}

func miniHAR() MTLSetup {
	s := QuickHAR()
	s.HAR.Clients = 10
	s.HAR.Outliers = 3
	s.HAR.Features = 30
	s.OutlierTasks = 3
	s.Rounds = 15
	s.AccuracyTargets = []float64{0.5, 0.55}
	return s
}

func TestFig5AndFig6(t *testing.T) {
	r, err := Fig5(miniHAR())
	if err != nil {
		t.Fatal(err)
	}
	if r.MochaRun == nil || r.CMFLRun == nil {
		t.Fatal("runs not retained")
	}
	if n := len(r.Mocha.Trace.CumUploads); n != len(r.MochaRun.History) {
		t.Fatalf("mocha trace has %d points, its history %d rounds", n, len(r.MochaRun.History))
	}
	if _, ok := r.Mocha.Trace.RoundsToAccuracy(0.5); !ok {
		t.Fatal("mocha trace should reach 50% accuracy")
	}
	if !strings.Contains(r.Render(), "MOCHA vs MOCHA+CMFL") {
		t.Fatal("fig5 render missing title")
	}
	f6, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if f6.Outliers.Len() == 0 || f6.NonOutliers.Len() == 0 {
		t.Fatal("fig6 produced empty populations")
	}
	if len(f6.SkipIdentified) != len(r.OutlierIdx) {
		t.Fatalf("identified %d clients, want %d", len(f6.SkipIdentified), len(r.OutlierIdx))
	}
	if !strings.Contains(f6.Render(), "outlier") {
		t.Fatal("fig6 render missing content")
	}
	if !strings.Contains(Table2Render(r, r), "Table II") {
		t.Fatal("table2 render missing title")
	}
}

func TestFig6RequiresOutlierGroundTruth(t *testing.T) {
	s := QuickSemeion()
	s.OutlierTasks = 0
	s.Rounds = 5
	r, err := Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig6(r); err == nil {
		t.Fatal("fig6 without outliers should error")
	}
}

// miniEmulation is a three-client cluster: one client per role. At this
// size the preset thresholds withhold nothing; 0.7 / 0.1 make CMFL and
// Gaia each skip, so the three runs differ.
func miniEmulation() *NWPSetup {
	s := QuickEmulation()
	s.Dialogue.Roles = 3
	s.OutlierRoles = 1
	s.Rounds = 6
	s.AccuracyTargets = []float64{0.05}
	s.CMFLThreshold, s.GaiaThreshold = 0.7, 0.1
	return s
}

func TestFig7SmallCluster(t *testing.T) {
	r, err := Fig7(miniEmulation())
	if err != nil {
		t.Fatal(err)
	}
	if r.VanillaWire <= 0 || r.CMFLWire <= 0 {
		t.Fatal("wire byte counts missing")
	}
	if r.VanillaWire <= r.CMFLWire {
		t.Fatalf("vanilla wire %d vs cmfl %d: the CMFL gate withheld nothing", r.VanillaWire, r.CMFLWire)
	}
	if !strings.Contains(r.Render(), "TCP emulation") {
		t.Fatal("fig7 render missing title")
	}
}

func TestOverheadFractionSmall(t *testing.T) {
	r, err := Overhead(miniMNIST())
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(r.RelevanceCheck) / float64(r.LocalIteration)
	if frac > 0.05 {
		t.Fatalf("relevance check costs %.2f%% of a local iteration, want well under 5%%", 100*frac)
	}
	if !strings.Contains(r.Render(), "overhead") {
		t.Fatal("overhead render missing content")
	}
}

func TestTraceOf(t *testing.T) {
	h := []fl.RoundStats{
		{RoundEvent: telemetry.RoundEvent{Round: 1, CumUploads: 5, Accuracy: 0.3}},
		{RoundEvent: telemetry.RoundEvent{Round: 2, CumUploads: 9, Accuracy: math.NaN()}},
	}
	tr := TraceOf(h)
	if len(tr.CumUploads) != 2 || tr.CumUploads[1] != 9 {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestScheduleFor(t *testing.T) {
	if _, ok := scheduleFor(0.5, false).(core.Constant); !ok {
		t.Fatal("expected constant schedule")
	}
	if _, ok := scheduleFor(0.5, true).(core.InvSqrt); !ok {
		t.Fatal("expected decaying schedule")
	}
}

func TestCSVExports(t *testing.T) {
	mn, nw, runs := miniMNIST(), miniNWP(), &Runs{}
	f1, err := Fig1(runs, mn, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(f1.CSV(), "mnist_dj,mnist_cdf") {
		t.Fatalf("fig1 csv header wrong: %q", f1.CSV()[:40])
	}
	f2, err := Fig2(runs, mn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(f2.CSV(), "round,significance,relevance") {
		t.Fatal("fig2 csv header wrong")
	}
	f4, err := Fig4(runs, mn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f4.CSV(), "cmfl_uploads") {
		t.Fatal("fig4 csv missing cmfl column")
	}
	f5, err := Fig5(miniHAR())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5.CSV(), "mocha_uploads") {
		t.Fatal("fig5 csv missing column")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSV(dir, "x.csv", "a,b\n1,2\n"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Fatalf("written content = %q", data)
	}
	// An empty directory means no CSV was asked for: nothing is written,
	// not even where the name alone points.
	name := filepath.Join(dir, "y.csv")
	if err := WriteCSV("", name, "a\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("WriteCSV with no directory wrote %s (stat: %v)", name, err)
	}
}

func TestMultiSeedFig4(t *testing.T) {
	s := miniMNIST()
	s.Rounds = 8
	r, err := MultiSeedFig4(&Runs{}, s, []int64{11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Seeds) != 2 || len(r.CMFL) != len(s.AccuracyTargets) {
		t.Fatalf("multiseed shape wrong: %+v", r)
	}
	out := r.Render()
	if !strings.Contains(out, "across 2 seeds") {
		t.Fatalf("render missing seed count:\n%s", out)
	}
}

// TestBadNamesRejected: a preset or sweep that does not exist is an error
// naming the bad value, never a silent fallback to some other run; so is a
// decay Gaia's sweep would ignore.
func TestBadNamesRejected(t *testing.T) {
	for _, tc := range []struct {
		name          string
		workload      string
		scale         string
		alg           string
		decay         bool
		wantInMessage string
	}{
		{"workload", "bogus", "quick", "cmfl", false, `"bogus"`},
		{"scale", "mnist", "huge", "cmfl", false, `"huge"`},
		{"algorithm", "nwp", "quick", "fedavg", false, `"fedavg"`},
		{"gaia-decay", "mnist", "quick", "gaia", true, "decay applies to CMFL's threshold only, not Gaia's"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Preset(tc.workload, tc.scale)
			if err == nil {
				_, err = Sweep(&Runs{}, w, tc.alg, []float64{0.5}, tc.decay)
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantInMessage) {
				t.Fatalf("error %v, want one naming %s", err, tc.wantInMessage)
			}
		})
	}
}

func TestPresetsAndReseed(t *testing.T) {
	for _, name := range []string{"mnist", "nwp", "emu"} {
		for _, scale := range []string{"quick", "paper"} {
			w, err := Preset(name, scale)
			if err != nil {
				t.Fatalf("Preset(%q, %q): %v", name, scale, err)
			}
			// A repeat's first seed is the preset's own: the same run.
			if re := w.Reseed(w.Train().Seed); !reflect.DeepEqual(re, w) {
				t.Errorf("%s %s: reseeding at its own seed gives %+v, want %+v", name, scale, re, w)
			}
		}
	}
	nw := QuickNWP()
	r := nw.Reseed(7).(*NWPSetup)
	if r.Seed != 7 || r.Dialogue.Seed != 6 || nw.Seed != 202 {
		t.Fatalf("reseed: copy seeds %d/%d, original %d; want 7/6, 202", r.Seed, r.Dialogue.Seed, nw.Seed)
	}
	if m := QuickMNIST().Reseed(7).Train(); m.Seed != 7 {
		t.Fatalf("mnist reseed: seed %d, want 7", m.Seed)
	}
}

// TestExperimentsPinned pins every simulation figure's printed output:
// one SHA-256 over Render and CSV of Figs. 1–4 and 7, Table I, a sweep
// per algorithm and workload and a multi-seed Fig. 4 per workload, at
// test scale. The AVX-512 and portable (CMFL_NOSIMD=1) kernels round
// differently, so each path has its pin. Sec. V-C's overhead is left out:
// it prints wall-clock time.
func TestExperimentsPinned(t *testing.T) {
	h := sha256.New()
	add := func(parts ...string) {
		for _, p := range parts {
			_, _ = io.WriteString(h, p)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mn, nw, runs := miniMNIST(), miniNWP(), &Runs{}
	f1, err := Fig1(runs, mn, nw)
	must(err)
	add(f1.Render(), f1.CSV())
	f2, err := Fig2(runs, mn)
	must(err)
	add(f2.Render(), f2.CSV())
	f3, err := Fig3(runs, mn, nw)
	must(err)
	add(f3.Render(), f3.CSV())
	f4a, err := Fig4(runs, mn)
	must(err)
	f4b, err := Fig4(runs, nw)
	must(err)
	add(f4a.Render(), f4a.CSV(), f4b.Render(), f4b.CSV(), Table1Render(f4a, f4b))
	for _, w := range []Workload{mn, nw} {
		for _, alg := range []string{"cmfl", "gaia"} {
			r, err := Sweep(runs, w, alg, []float64{0.3, 0.6}, false)
			must(err)
			add(r.Render())
		}
	}
	for _, w := range []Workload{mn, nw} {
		r, err := MultiSeedFig4(runs, w, []int64{11, 12})
		must(err)
		add(r.Render())
	}
	f7, err := Fig7(miniEmulation())
	must(err)
	add(f7.Render(), f7.CSV())
	const wantSIMD, wantPortable = "e3cfc339d02a315770230b6284cac58d39084b5773197cde7b1b4a9a3cd6d3b9",
		"427d743d4cc4b187a713bfd9736ed31b6b81d17869ed919e6cfdd3028e4ddc48"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSIMD && got != wantPortable {
		t.Errorf("experiment outputs SHA-256 %s, want %s (AVX-512) or %s (portable)", got, wantSIMD, wantPortable)
	}
}
