package stats

import (
	"math"
	"testing"
	"testing/quick"

	"cmfl/internal/xrand"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %v/%v, want 1/4", c.Min(), c.Max())
	}
}

func TestCDFDropsNaN(t *testing.T) {
	c := NewCDF([]float64{math.NaN(), 1, math.NaN(), 2})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.At(1)) || !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Max()) {
		t.Fatal("empty CDF should return NaN everywhere")
	}
	xs, ps := c.Points(5)
	if xs != nil || ps != nil {
		t.Fatal("empty CDF Points should be nil")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0); q != 10 {
		t.Errorf("Quantile(0) = %v, want 10", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Errorf("Quantile(1) = %v, want 50", q)
	}
	if q := c.Quantile(0.5); q != 30 {
		t.Errorf("Quantile(0.5) = %v, want 30", q)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		c := NewCDF(rng.NormVec(1+rng.Intn(100), 0, 5))
		xs, ps := c.Points(20)
		for i := 1; i < len(xs); i++ {
			if ps[i] < ps[i-1] {
				return false
			}
		}
		return ps[len(ps)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedModelDivergence(t *testing.T) {
	global := []float64{2, -1, 0} // third param skipped (zero global)
	clients := [][]float64{
		{3, -1, 5},  // |1/2|, 0
		{1, -3, -5}, // |1/2|, |2|
	}
	d, err := NormalizedModelDivergence(clients, global)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Fatalf("got %d divergences, want 2 (zero-global param skipped)", len(d))
	}
	if math.Abs(d[0]-0.5) > 1e-12 {
		t.Errorf("d[0] = %v, want 0.5", d[0])
	}
	if math.Abs(d[1]-1.0) > 1e-12 {
		t.Errorf("d[1] = %v, want 1.0", d[1])
	}
}

func TestNormalizedModelDivergenceErrors(t *testing.T) {
	if _, err := NormalizedModelDivergence(nil, []float64{1}); err == nil {
		t.Fatal("expected error for no clients")
	}
	if _, err := NormalizedModelDivergence([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestDivergenceZeroWhenIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(20)
		g := rng.NormVec(n, 1, 1)
		clients := [][]float64{append([]float64(nil), g...), append([]float64(nil), g...)}
		d, err := NormalizedModelDivergence(clients, g)
		if err != nil {
			return false
		}
		for _, v := range d {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundsToAccuracy(t *testing.T) {
	tr := &AccuracyTrace{
		CumUploads: []int{10, 20, 30, 40},
		Accuracy:   []float64{0.3, math.NaN(), 0.7, 0.9},
	}
	got, ok := tr.RoundsToAccuracy(0.6)
	if !ok || got != 30 {
		t.Fatalf("RoundsToAccuracy(0.6) = %d, %v; want 30, true", got, ok)
	}
	if _, ok := tr.RoundsToAccuracy(0.95); ok {
		t.Fatal("unreached target should return ok=false")
	}
	if best := tr.BestAccuracy(); best != 0.9 {
		t.Fatalf("BestAccuracy = %v, want 0.9", best)
	}
}

func TestSaving(t *testing.T) {
	vanilla := &AccuracyTrace{CumUploads: []int{100, 500, 900}, Accuracy: []float64{0.4, 0.6, 0.8}}
	cmfl := &AccuracyTrace{CumUploads: []int{50, 145, 259}, Accuracy: []float64{0.4, 0.6, 0.8}}
	s, ok := Saving(vanilla, cmfl, 0.6)
	if !ok || math.Abs(s-500.0/145.0) > 1e-12 {
		t.Fatalf("Saving = %v, %v; want %v", s, ok, 500.0/145.0)
	}
	if _, ok := Saving(vanilla, cmfl, 0.99); ok {
		t.Fatal("Saving at unreachable accuracy should be not-ok")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	if s.String() != "n/a" || !math.IsNaN(s.Mean()) {
		t.Fatal("empty summary should be n/a")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if math.Abs(s.Std()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("range = [%v, %v]", s.Min(), s.Max())
	}
}

func TestSummaryIgnoresNaN(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(math.NaN())
	s.Add(3)
	if s.N() != 2 || s.Mean() != 2 {
		t.Fatalf("NaN not ignored: n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestSummaryMatchesBatchComputation(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(50)
		v := rng.NormVec(n, 1, 2)
		var s Summary
		var sum float64
		for _, x := range v {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(n)
		var sq float64
		for _, x := range v {
			sq += (x - mean) * (x - mean)
		}
		std := math.Sqrt(sq / float64(n-1))
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Std()-std) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
