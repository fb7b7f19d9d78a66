package core

import (
	"math"
	"testing"
	"testing/quick"

	"cmfl/internal/xrand"
)

// Property-based suite for the Eq. 9 relevance measure (stdlib testing/quick
// only). Each property is quantified over seeded random update vectors —
// mixed signs, exact zeros, and a wide magnitude range — rather than a
// handful of fixtures, because the filter's correctness argument (paper
// Sec. III-B) is stated as algebraic properties of the measure, not as
// example values.

// randVector draws a length-n vector with positive, negative, and exactly
// zero coordinates, magnitudes spanning several orders.
func randVector(rng *xrand.Stream, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(5) {
		case 0:
			v[i] = 0
		default:
			mag := math.Pow(10, float64(rng.Intn(7)-3)) * (rng.Float64() + 1e-9)
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			v[i] = mag
		}
	}
	return v
}

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 300} }

// TestPropRelevanceRange: e(u, v) ∈ [0, 1] for every same-length pair.
func TestPropRelevanceRange(t *testing.T) {
	f := func(seed int64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(lenRaw % 64)
		u, v := randVector(rng, n), randVector(rng, n)
		rel, err := Relevance(u, v)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return rel >= 0 && rel <= 1
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestPropRelevanceSignFlipSymmetry: flipping the sign of *both* arguments
// leaves the measure unchanged — e(-u, -v) = e(u, v). Agreement is about
// relative direction, so a global reflection is invisible to it.
func TestPropRelevanceSignFlipSymmetry(t *testing.T) {
	f := func(seed int64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(lenRaw % 64)
		u, v := randVector(rng, n), randVector(rng, n)
		nu, nv := make([]float64, n), make([]float64, n)
		for i := range u {
			nu[i], nv[i] = -u[i], -v[i]
		}
		a, err1 := Relevance(u, v)
		b, err2 := Relevance(nu, nv)
		if err1 != nil || err2 != nil {
			t.Fatalf("unexpected error: %v %v", err1, err2)
		}
		return a == b // both sides are exact ratios of the same integers
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestPropRelevanceSelfIsOne: e(u, u) = 1 for every non-empty u — a vector
// fully agrees with itself, zero coordinates included (zero matches zero,
// the "no change" direction).
func TestPropRelevanceSelfIsOne(t *testing.T) {
	f := func(seed int64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(lenRaw%64) + 1
		u := randVector(rng, n)
		rel, err := Relevance(u, u)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return rel == 1 // matches/len is exactly 1 when all coordinates agree
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestPropRelevanceScaleInvariance: multiplying either argument by positive
// per-coordinate scales leaves the measure unchanged — the property that
// makes Eq. 9 robust to learning-rate and dataset-size skew, unlike a
// magnitude test (paper Sec. III-B).
func TestPropRelevanceScaleInvariance(t *testing.T) {
	f := func(seed int64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(lenRaw % 64)
		u, v := randVector(rng, n), randVector(rng, n)
		su, sv := make([]float64, n), make([]float64, n)
		for i := range u {
			su[i] = u[i] * (rng.Float64()*100 + 1e-6)
			sv[i] = v[i] * (rng.Float64()*100 + 1e-6)
		}
		a, err1 := Relevance(u, v)
		b, err2 := Relevance(su, sv)
		if err1 != nil || err2 != nil {
			t.Fatalf("unexpected error: %v %v", err1, err2)
		}
		return a == b // positive scaling cannot change any sign, so the ratio is identical
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestPropSignAgreementMatchesRelevance: the precomputed-sign fast path is
// exactly Eq. 9 — SignAgreement(u, SignsInto(nil, v)) = Relevance(u, v).
func TestPropSignAgreementMatchesRelevance(t *testing.T) {
	f := func(seed int64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(lenRaw % 64)
		u, v := randVector(rng, n), randVector(rng, n)
		want, err1 := Relevance(u, v)
		got, err2 := SignAgreement(u, SignsInto(nil, v))
		if err1 != nil || err2 != nil {
			t.Fatalf("unexpected error: %v %v", err1, err2)
		}
		return got == want // both paths compute the identical integer ratio
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestPropZeroLengthEdges pins the zero-parameter edge across both paths:
// empty vectors have relevance 0 (nothing aligns, never upload on merit)
// and mismatched lengths fail loudly rather than guessing.
func TestPropZeroLengthEdges(t *testing.T) {
	if rel, err := Relevance(nil, nil); err != nil || rel != 0 {
		t.Fatalf("Relevance(nil, nil) = %v, %v; want 0, nil", rel, err)
	}
	if rel, err := SignAgreement(nil, nil); err != nil || rel != 0 {
		t.Fatalf("SignAgreement(nil, nil) = %v, %v; want 0, nil", rel, err)
	}
	if _, err := Relevance([]float64{1}, nil); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := SignAgreement([]float64{1}, []int8{1, -1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}
