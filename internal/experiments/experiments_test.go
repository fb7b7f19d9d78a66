package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
)

// miniMNIST shrinks the quick preset to test scale (a couple of seconds).
func miniMNIST() MNISTSetup {
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

func miniNWP() NWPSetup {
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
	clean := s
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
	r, err := Fig2(s)
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
	mn, nw := miniMNIST(), miniNWP()
	f1, err := Fig1(mn, nw)
	if err != nil {
		t.Fatal(err)
	}
	if f1.MNIST.Len() == 0 || f1.NWP.Len() == 0 {
		t.Fatal("fig1 produced empty divergence CDFs")
	}
	if !strings.Contains(f1.Render(), "Normalized Model Divergence") {
		t.Fatal("fig1 render missing content")
	}
	f3, err := Fig3(mn, nw)
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
	r, err := Fig4MNIST(miniMNIST())
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
	r, err := SweepCMFLMNIST(s, []float64{0.3, 0.9}, false)
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

func TestFig7SmallCluster(t *testing.T) {
	s := QuickEmulation()
	s.Clients = 3
	s.NWP.Dialogue.Roles = 3
	s.NWP.OutlierRoles = 1
	s.NWP.Rounds = 6
	s.AccuracyTargets = []float64{0.05}
	r, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.VanillaWire <= 0 || r.CMFLWire <= 0 {
		t.Fatal("wire byte counts missing")
	}
	if r.VanillaWire <= r.CMFLWire {
		t.Logf("note: vanilla wire %d vs cmfl %d (filtering may not trigger in 6 rounds)", r.VanillaWire, r.CMFLWire)
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
	mn, nw := miniMNIST(), miniNWP()
	f1, err := Fig1(mn, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(f1.CSV(), "mnist_dj,mnist_cdf") {
		t.Fatalf("fig1 csv header wrong: %q", f1.CSV()[:40])
	}
	f2, err := Fig2(mn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(f2.CSV(), "round,significance,relevance") {
		t.Fatal("fig2 csv header wrong")
	}
	f4, err := Fig4MNIST(mn)
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
}

func TestMultiSeedFig4(t *testing.T) {
	s := miniMNIST()
	s.Rounds = 8
	r, err := MultiSeedFig4MNIST(s, []int64{11, 12})
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
