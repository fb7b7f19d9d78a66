package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randUpdate mixes positive, negative and exact-zero coordinates — zeros are
// their own sign class in Eq. 9, so they must be exercised explicitly.
func randUpdate(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = -rng.Float64()
		default:
			v[i] = rng.Float64()
		}
	}
	return v
}

// edgeUpdate is randUpdate with the values a sign kernel can get wrong mixed
// in: both zeros, NaN, infinities, denormals and the largest finite floats.
func edgeUpdate(rng *rand.Rand, n int) []float64 {
	edges := []float64{
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	v := randUpdate(rng, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = edges[rng.Intn(len(edges))]
		}
	}
	return v
}

// TestSignAgreementMatchesRelevance is the property test of ISSUE 1: the
// precomputed-sign fast path must equal Relevance exactly (same float64,
// not within tolerance — both count integer matches), and SignsInto must
// equal Sign. Lengths 0…130 end in every masked tail of the vector kernels,
// the sub-slices start off any alignment, and the values include the ones a
// sign kernel can get wrong.
func TestSignAgreementMatchesRelevance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 331; trial++ {
		n := trial
		if n > 130 {
			n = 1 + rng.Intn(400)
		}
		local := edgeUpdate(rng, n+1)[1:]
		global := edgeUpdate(rng, n+1)[1:]
		signs := SignsInto(make([]int8, n+3)[3:3], global)
		for i, g := range global {
			if int(signs[i]) != Sign(g) {
				t.Fatalf("trial %d: SignsInto[%d] = %d for %v, want %d", trial, i, signs[i], g, Sign(g))
			}
		}

		want, err := Relevance(local, global)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SignAgreement(local, signs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: SignAgreement %v != Relevance %v", trial, got, want)
		}
	}
}

func TestSignsIntoReusesBuffer(t *testing.T) {
	buf := SignsInto(nil, []float64{1, -2, 0, 3})
	want := []int8{1, -1, 0, 1}
	for i, s := range want {
		if buf[i] != s {
			t.Fatalf("signs[%d] = %d, want %d", i, buf[i], s)
		}
	}
	// Shrinking reuse must not reallocate.
	buf2 := SignsInto(buf[:0], []float64{-1, 0})
	if &buf2[0] != &buf[0] {
		t.Fatal("SignsInto reallocated despite sufficient capacity")
	}
	if buf2[0] != -1 || buf2[1] != 0 {
		t.Fatalf("reused signs wrong: %v", buf2)
	}
}

func TestSignAgreementLengthMismatch(t *testing.T) {
	if _, err := SignAgreement([]float64{1, 2}, []int8{1}); err != ErrLengthMismatch {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
	if v, err := SignAgreement(nil, nil); err != nil || v != 0 {
		t.Fatalf("empty vectors: got %v, %v", v, err)
	}
}

// TestCheckSignsMatchesCheck verifies the filter fast path decides exactly
// like the general path, for both the fixed-schedule and adaptive filters,
// including the no-feedback bootstrap.
func TestCheckSignsMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	filter := NewFilter(Constant(0.5))
	adaptive := NewAdaptiveFilter(0.5, 0.3)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		local := randUpdate(rng, n)
		feedback := randUpdate(rng, n)
		if trial%10 == 0 { // bootstrap rounds: all-zero feedback
			for i := range feedback {
				feedback[i] = 0
			}
		}
		var signs []int8
		if !AllZero(feedback) {
			signs = SignsInto(nil, feedback)
		}
		tRound := 1 + rng.Intn(50)

		want, err := filter.Check(local, nil, feedback, tRound)
		if err != nil {
			t.Fatal(err)
		}
		got, handled, err := filter.CheckSigns(local, signs, tRound)
		if err != nil || !handled {
			t.Fatalf("CheckSigns handled=%v err=%v", handled, err)
		}
		if got != want {
			t.Fatalf("trial %d: CheckSigns %+v != Check %+v", trial, got, want)
		}

		wantA, err := adaptive.Check(local, nil, feedback, tRound)
		if err != nil {
			t.Fatal(err)
		}
		gotA, handled, err := adaptive.CheckSigns(local, signs, tRound)
		if err != nil || !handled {
			t.Fatalf("adaptive CheckSigns handled=%v err=%v", handled, err)
		}
		if gotA != wantA {
			t.Fatalf("trial %d: adaptive CheckSigns %+v != Check %+v", trial, gotA, wantA)
		}
	}

	// The cosine ablation cannot use signs and must report handled=false.
	cos := NewFilter(Constant(0.5))
	cos.UseCosine = true
	if _, handled, _ := cos.CheckSigns([]float64{1}, []int8{1}, 1); handled {
		t.Fatal("cosine filter must decline the sign fast path")
	}
}

// TestDiffSignsIntoMatchesThreeSweeps compares the fused prelude with what
// it replaced — subtract in place, AllZero, SignsInto — on the difference
// bits, the sign bytes and the flag, including an unchanged model and one
// whose only difference is a −0.
func TestDiffSignsIntoMatchesThreeSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	check := func(name string, prev, cur []float64) {
		t.Helper()
		wantDiff := make([]float64, len(prev))
		for i := range prev {
			wantDiff[i] = cur[i] - prev[i]
		}
		wantNonZero := !AllZero(wantDiff)
		wantSigns := SignsInto(nil, wantDiff)

		diff := append([]float64(nil), prev...)
		signs, nonZero := DiffSignsInto(nil, diff, cur)
		if nonZero != wantNonZero {
			t.Fatalf("%s: non-zero = %v, want %v", name, nonZero, wantNonZero)
		}
		for i := range wantDiff {
			if math.Float64bits(diff[i]) != math.Float64bits(wantDiff[i]) {
				t.Fatalf("%s: diff[%d] = %v, want %v", name, i, diff[i], wantDiff[i])
			}
			if signs[i] != wantSigns[i] {
				t.Fatalf("%s: signs[%d] = %d, want %d", name, i, signs[i], wantSigns[i])
			}
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 68, 1001} {
		prev, cur := edgeUpdate(rng, n), edgeUpdate(rng, n)
		check("random", prev, cur)
		check("unchanged", cur, append([]float64(nil), cur...))
	}
	same := randUpdate(rng, 68)
	check("unchanged", same, append([]float64(nil), same...))
	negZero := append([]float64(nil), same...)
	same[5], negZero[5] = 0, math.Copysign(0, -1) // −0 − 0 = −0: still no new direction
	check("negative zero", same, negZero)

	// The sign buffer is reused like SignsInto's.
	buf := make([]int8, 0, 68)
	if out, _ := DiffSignsInto(buf, append([]float64(nil), same...), negZero); &out[0] != &buf[:1][0] {
		t.Fatal("DiffSignsInto reallocated despite sufficient capacity")
	}
}

func TestSignPathAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	local, global := randUpdate(rng, 1001), randUpdate(rng, 1001)
	prev := append([]float64(nil), global...)
	signs := make([]int8, len(global))
	filter := NewAdaptiveFilter(0.5, 0.5)
	if a := testing.AllocsPerRun(20, func() {
		signs = SignsInto(signs[:0], global)
		if _, err := SignAgreement(local, signs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := filter.CheckSigns(local, signs, 3); err != nil {
			t.Fatal(err)
		}
		signs, _ = DiffSignsInto(signs[:0], prev, local)
	}); a != 0 {
		t.Fatalf("sign path allocates %v times per run", a)
	}
}

// TestAdaptiveFilterConcurrentObserve runs the lock-free threshold under the
// race detector: gate reads against controller writes, and concurrent
// writers losing no update.
func TestAdaptiveFilterConcurrentObserve(t *testing.T) {
	f := NewAdaptiveFilter(0.5, 0.5)
	f.Gain, f.Min, f.Max = 0.001, 0, 1
	local, signs := []float64{1, -1, 0, 2}, []int8{1, -1, 0, -1}
	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.ObserveRound(i, 1, 1) // every client uploaded: raise by Gain/2
				if _, _, err := f.CheckSigns(local, signs, i); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if want := 0.5 + writers*perWriter*0.0005; !ApproxEqual(f.Threshold(), want, 1e-9) {
		t.Fatalf("threshold after %d observations = %v, want %v", writers*perWriter, f.Threshold(), want)
	}
}
