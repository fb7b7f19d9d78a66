package compress

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cmfl/internal/xrand"
)

func TestIdentityRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		u := rng.NormVec(1+rng.Intn(40), 0, 3)
		payload, err := Encode(Identity{}, u)
		if err != nil {
			return false
		}
		got, err := Decode(Identity{}, payload, len(u))
		if err != nil {
			return false
		}
		for i := range u {
			if got[i] != u[i] {
				return false
			}
		}
		return len(payload) == len(u)*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUniform8BoundedError(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		u := rng.NormVec(2+rng.Intn(40), 0, 2)
		payload, err := Encode(Uniform8{}, u)
		if err != nil {
			return false
		}
		got, err := Decode(Uniform8{}, payload, len(u))
		if err != nil {
			return false
		}
		lo, hi := u[0], u[0]
		for _, v := range u {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		step := (hi - lo) / 255
		for i := range u {
			if math.Abs(got[i]-u[i]) > step/2+1e-12 {
				return false
			}
		}
		// 8x compression plus the 16-byte range header.
		return len(payload) == 16+len(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUniform8ConstantVector(t *testing.T) {
	u := []float64{2.5, 2.5, 2.5}
	payload, err := Encode(Uniform8{}, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(Uniform8{}, payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 2.5 {
			t.Fatalf("constant vector round trip [%d] = %v", i, v)
		}
	}
}

// Regression: a single NaN or Inf coordinate used to poison Uniform8's
// lo/hi range silently, decoding every coordinate to NaN. It must be a
// typed error instead. The error names the first bad coordinate, wherever it
// sits in the vector kernel's steps and tail, alone among finite values or
// with a +Inf after it.
func TestUniform8RejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Encode(Uniform8{}, []float64{1, 2, bad, 4}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Uniform8(%v) err = %v, want ErrNonFinite", bad, err)
		}
		for n := 1; n <= 19; n++ {
			for at := 0; at < n; at++ {
				for _, trailing := range []bool{false, true} {
					if trailing && at == n-1 {
						continue
					}
					u := xrand.New(int64(n)).NormVec(n, 0, 1)
					u[at] = bad
					if trailing {
						u[n-1] = math.Inf(1)
					}
					_, err := Encode(Uniform8{}, u)
					if !errors.Is(err, ErrNonFinite) {
						t.Fatalf("Uniform8(%v) err = %v, want ErrNonFinite", u, err)
					}
					if want := fmt.Sprintf("coordinate %d = ", at); !strings.Contains(err.Error(), want) {
						t.Fatalf("n=%d, %v at %d, trailing +Inf %v: %q does not name it", n, bad, at, trailing, err)
					}
				}
			}
		}
	}
}

// Regression: a finite update whose range overflows (hi − lo = +Inf) used to
// encode without an error and decode to all NaN, so one such client poisoned
// the global model on every tier without a wire-level check. The encoder
// rejects it, and the decoder rejects any header no encoder writes.
func TestUniform8RejectsRangeOverflow(t *testing.T) {
	for _, u := range [][]float64{{-1e308, 0.5, 1e308}, {math.MaxFloat64, -math.MaxFloat64}} {
		if p, err := Encode(Uniform8{}, u); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Uniform8(%v) = %v, %v; want ErrNonFinite", u, p, err)
		}
		if _, err := Encode(NewChain(TopK{K: 2}, Uniform8{}), u); !errors.Is(err, ErrNonFinite) {
			t.Errorf("top2+quantize8(%v) err = %v, want ErrNonFinite", u, err)
		}
	}
	for _, r := range [][2]float64{
		{-1e308, 1e308}, {1, -1}, {math.NaN(), 1}, {0, math.Inf(1)}, {math.Inf(-1), math.Inf(-1)},
	} {
		payload := make([]byte, 16+3)
		putU64(payload[:8], math.Float64bits(r[0]))
		putU64(payload[8:16], math.Float64bits(r[1]))
		if got, err := Decode(Uniform8{}, payload, 3); !errors.Is(err, ErrCorruptPayload) {
			t.Errorf("header [%v, %v] decoded to %v, %v; want ErrCorruptPayload", r[0], r[1], got, err)
		}
	}
}

// The decoder's level table gives the bits of lo + b/255·scale for every byte.
func TestUniform8DecodeLevels(t *testing.T) {
	payload := make([]byte, 16+256)
	for b := 0; b < 256; b++ {
		payload[16+b] = byte(b)
	}
	for _, r := range [][2]float64{{-1, 1}, {0, 0}, {-3.75, 0.001}, {1e-310, 3e-310}, {-1e307, 1e307}} {
		putU64(payload[:8], math.Float64bits(r[0]))
		putU64(payload[8:16], math.Float64bits(r[1]))
		got, err := Decode(Uniform8{}, payload, 256)
		if err != nil {
			t.Fatal(err)
		}
		for b, v := range got {
			if want := r[0] + float64(b)/255*(r[1]-r[0]); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("range %v byte %d: %v, want %v", r, b, v, want)
			}
		}
	}
}

func TestSign1BitCodebookRejectNonFinite(t *testing.T) {
	u := []float64{1, math.Inf(1), 3}
	if _, err := Encode(Sign1Bit{}, u); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Sign1Bit err = %v, want ErrNonFinite", err)
	}
	if _, err := Encode(Codebook{}, u); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Codebook err = %v, want ErrNonFinite", err)
	}
}

// Pass-through codecs transmit non-finite coordinates verbatim: the damage
// stays on the coordinate that carried it in.
func TestTopKPassesNonFiniteThrough(t *testing.T) {
	u := []float64{0.1, math.Inf(1), 0.2}
	payload, err := Encode(TopK{K: 1}, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(TopK{K: 1}, payload, len(u))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got[1], 1) || got[0] != 0 || got[2] != 0 {
		t.Fatalf("TopK non-finite pass-through = %v", got)
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	u := []float64{0.1, -5, 0.2, 3, -0.05}
	c := TopK{K: 2}
	payload, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(c, payload, len(u))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, -5, 0, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK decode = %v, want %v", got, want)
		}
	}
	if len(payload) != 2*12 {
		t.Fatalf("TopK payload = %d bytes, want 24", len(payload))
	}
}

// TestTopKMatchesFullSort cross-checks the quickselect selection against a
// reference full sort over random vectors, including ones with heavy ties
// (all-equal magnitudes are quickselect's classic degenerate input).
func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		dim := 1 + rng.Intn(300)
		k := 1 + rng.Intn(dim)
		u := make([]float64, dim)
		for i := range u {
			if rng.Float64() < 0.3 {
				u[i] = 1.5 // force magnitude ties
			} else {
				u[i] = rng.Norm()
			}
		}
		idx, vals, err := (TopK{K: k}).SelectInto(nil, nil, u)
		if err != nil || len(idx) != k || len(vals) != k {
			return false
		}
		// Reference: sort all indices by |value| descending.
		ref := make([]int, dim)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			return math.Abs(u[ref[a]]) > math.Abs(u[ref[b]])
		})
		// The k-th largest magnitude is the selection threshold; every kept
		// value must be >= it (ties make exact index sets ambiguous).
		threshold := math.Abs(u[ref[k-1]])
		if !sort.SliceIsSorted(idx, func(a, b int) bool { return idx[a] < idx[b] }) {
			return false
		}
		for j, i := range idx {
			if vals[j] != u[i] || math.Abs(u[i]) < threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKAllZeroUpdate(t *testing.T) {
	u := make([]float64, 1000) // all-equal input: Lomuto's O(n²) trap
	payload, err := Encode(TopK{K: 10}, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(TopK{K: 10}, payload, len(u))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("all-zero decode [%d] = %v", i, v)
		}
	}
}

func TestTopKLargerThanDim(t *testing.T) {
	u := []float64{1, 2}
	got, err := Encode(TopK{K: 10}, u)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(TopK{K: 10}, got, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != 1 || dec[1] != 2 {
		t.Fatalf("TopK over-K decode = %v", dec)
	}
}

func TestTopKInvalid(t *testing.T) {
	if _, err := Encode(TopK{}, []float64{1}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Decode(TopK{K: 1}, []byte{1, 2, 3}, 4); err == nil {
		t.Fatal("expected error for ragged payload")
	}
	bad, _ := Encode(TopK{K: 1}, []float64{9})
	if _, err := Decode(TopK{K: 1}, bad, 0); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
}

func TestRandomMaskRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		dim := 10 + rng.Intn(100)
		u := rng.NormVec(dim, 0, 1)
		c := RandomMask{Fraction: 0.25, Seed: uint64(seed)}
		payload, err := Encode(c, u)
		if err != nil {
			return false
		}
		got, err := Decode(c, payload, dim)
		if err != nil {
			return false
		}
		for i := range u {
			if got[i] != 0 && got[i] != u[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMaskFractionApprox(t *testing.T) {
	rng := xrand.New(9)
	u := rng.NormVec(10000, 0, 1)
	c := RandomMask{Fraction: 0.25, Seed: 7}
	payload, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(payload)/8) / 10000
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("mask kept %.3f of coords, want ~0.25", frac)
	}
}

func TestRandomMaskInvalid(t *testing.T) {
	if _, err := Encode(RandomMask{Fraction: 0}, []float64{1}); err == nil {
		t.Fatal("expected error for zero fraction")
	}
	c := RandomMask{Fraction: 0.5, Seed: 1}
	if _, err := Decode(c, []byte{1}, 10); err == nil {
		t.Fatal("expected error for short payload")
	}
}

func TestSign1BitRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		dim := 1 + rng.Intn(700)
		u := rng.NormVec(dim, 0, 2)
		c := Sign1Bit{Chunk: 64}
		payload, err := Encode(c, u)
		if err != nil {
			return false
		}
		got, err := Decode(c, payload, dim)
		if err != nil {
			return false
		}
		// Per chunk: decoded values are ±(mean |v| of the chunk) with the
		// original signs.
		for base := 0; base < dim; base += 64 {
			end := base + 64
			if end > dim {
				end = dim
			}
			sum := 0.0
			for i := base; i < end; i++ {
				sum += math.Abs(u[i])
			}
			scale := sum / float64(end-base)
			for i := base; i < end; i++ {
				want := scale
				if u[i] < 0 {
					want = -scale
				}
				if got[i] != want {
					return false
				}
			}
		}
		nChunks := (dim + 63) / 64
		return len(payload) == 4+nChunks*8+(dim+7)/8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCodebookRoundTrip(t *testing.T) {
	rng := xrand.New(42)
	u := rng.NormVec(4000, 0, 1)
	c := Codebook{K: 32, Seed: 5}
	payload, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 32*8 + 4000; len(payload) != want {
		t.Fatalf("codebook payload = %d bytes, want %d", len(payload), want)
	}
	got, err := Decode(c, payload, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// k-means with K=32 over N(0,1) should reconstruct with small error.
	var mse float64
	for i := range u {
		d := got[i] - u[i]
		mse += d * d
	}
	mse /= float64(len(u))
	if mse > 0.01 {
		t.Fatalf("codebook MSE = %v, want < 0.01", mse)
	}
}

func TestCodebookDeterministic(t *testing.T) {
	rng := xrand.New(3)
	u := rng.NormVec(500, 0, 1)
	c := Codebook{K: 8, Seed: 11}
	a, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("codebook encode is not deterministic for identical inputs")
	}
}

func TestCodebookConstantVector(t *testing.T) {
	u := []float64{1.5, 1.5, 1.5, 1.5}
	c := Codebook{K: 4, Seed: 1}
	payload, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(c, payload, len(u))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Abs(v-1.5) > 1e-9 {
			t.Fatalf("constant codebook decode [%d] = %v", i, v)
		}
	}
}

func TestCodebookInvalidK(t *testing.T) {
	for _, k := range []int{1, 256, -3} {
		if _, err := Encode(Codebook{K: k}, []float64{1, 2}); err == nil {
			t.Fatalf("Codebook K=%d should be rejected", k)
		}
	}
}

func TestChainTopKQuantize(t *testing.T) {
	rng := xrand.New(8)
	u := rng.NormVec(2000, 0, 1)
	c := NewChain(TopK{K: 100}, Uniform8{})
	payload, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	// 4-byte count + 100 u32 indices + quantized values (16 + 100).
	if want := 4 + 100*4 + 16 + 100; len(payload) != want {
		t.Fatalf("chain payload = %d bytes, want %d", len(payload), want)
	}
	got, err := Decode(c, payload, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Unkept coordinates decode to zero; kept ones to their quantized value.
	idx, vals, err := (TopK{K: 100}).SelectInto(nil, nil, u)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[int]float64, len(idx))
	lo, hi := vals[0], vals[0]
	for j, i := range idx {
		kept[int(i)] = vals[j]
		lo, hi = math.Min(lo, vals[j]), math.Max(hi, vals[j])
	}
	step := (hi - lo) / 255
	for i, v := range got {
		want, isKept := kept[i]
		if !isKept {
			if v != 0 {
				t.Fatalf("chain unkept coord %d = %v, want 0", i, v)
			}
			continue
		}
		if math.Abs(v-want) > step/2+1e-12 {
			t.Fatalf("chain kept coord %d = %v, want ~%v", i, v, want)
		}
	}
}

func TestChainMaskSign1Bit(t *testing.T) {
	rng := xrand.New(15)
	u := rng.NormVec(1000, 0, 1)
	c := NewChain(RandomMask{Fraction: 0.5, Seed: 3}, Sign1Bit{Chunk: 32})
	payload, err := Encode(c, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(c, payload, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("chain decode length = %d", len(got))
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := Encode(Chain{}, []float64{1}); err == nil {
		t.Fatal("empty chain should error")
	}
	nested := Chain{Selector: TopK{K: 1}, Values: Chain{Selector: TopK{K: 1}, Values: Identity{}}}
	if _, err := Encode(nested, []float64{1}); err == nil {
		t.Fatal("nested chain should error")
	}
}

// TestEncodeIntoReusesBuffer pins the scratch contract: feeding a call's
// output back in as dst must reuse its capacity (same backing array) once
// steady state is reached.
func TestEncodeIntoReusesBuffer(t *testing.T) {
	rng := xrand.New(2)
	u := rng.NormVec(512, 0, 1)
	codecs := []Codec{Identity{}, Uniform8{}, TopK{K: 32}, Sign1Bit{Chunk: 64}, NewChain(TopK{K: 32}, Uniform8{})}
	for _, c := range codecs {
		buf, err := c.EncodeInto(nil, u)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		again, err := c.EncodeInto(buf, u)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(buf) > 0 && &again[0] != &buf[0] {
			t.Errorf("%s: EncodeInto did not reuse the caller's buffer", c.Name())
		}
		var dec []float64
		dec, err = c.DecodeInto(dec, again, len(u))
		if err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		dec2, err := c.DecodeInto(dec, again, len(u))
		if err != nil {
			t.Fatalf("%s decode 2: %v", c.Name(), err)
		}
		if &dec2[0] != &dec[0] {
			t.Errorf("%s: DecodeInto did not reuse the caller's buffer", c.Name())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(Identity{}, []byte{1, 2}, 1); err == nil {
		t.Fatal("identity should reject wrong length")
	}
	if _, err := Decode(Uniform8{}, []byte{1}, 4); err == nil {
		t.Fatal("quantize8 should reject wrong length")
	}
	if _, err := Decode(Sign1Bit{}, []byte{1, 0, 0}, 4); err == nil {
		t.Fatal("sign1bit should reject short payload")
	}
	if _, err := Decode(Codebook{}, []byte{2, 1}, 4); err == nil {
		t.Fatal("codebook should reject short payload")
	}
	if _, err := Decode(NewChain(TopK{K: 1}, Identity{}), []byte{1}, 4); err == nil {
		t.Fatal("chain should reject short payload")
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		codec interface{ Name() string }
		want  string
	}{
		{Identity{}, "identity"},
		{Uniform8{}, "quantize8"},
		{TopK{K: 5}, "top5"},
		{RandomMask{Fraction: 0.25}, "mask25%"},
		{Sign1Bit{}, "sign1bit/256"},
		{Codebook{}, "codebook16"},
		{NewChain(TopK{K: 9}, Uniform8{}), "top9+quantize8"},
	}
	for _, c := range cases {
		if got := c.codec.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	codecs := []Codec{
		Identity{},
		Uniform8{},
		TopK{K: 123},
		RandomMask{Fraction: 0.25, Seed: 99},
		Sign1Bit{Chunk: 128},
		Sign1Bit{}, // defaults must canonicalize
		Codebook{K: 32, Iters: 4, Seed: 7},
		Codebook{},
		NewChain(TopK{K: 50}, Uniform8{}),
		NewChain(RandomMask{Fraction: 0.1, Seed: 2}, Sign1Bit{Chunk: 32}),
	}
	for _, c := range codecs {
		spec, err := EncodeSpec(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, rest, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing spec bytes", c.Name(), len(rest))
		}
		if got.Name() != c.Name() {
			t.Fatalf("spec round trip = %s, want %s", got.Name(), c.Name())
		}
		// Canonicalization: re-encoding the parsed codec must be byte-equal.
		spec2, err := EncodeSpec(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(spec) != string(spec2) {
			t.Fatalf("%s: spec not canonical: %x vs %x", c.Name(), spec, spec2)
		}
	}
}

func TestSpecDefaultsCanonical(t *testing.T) {
	a, err := EncodeSpec(Sign1Bit{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSpec(Sign1Bit{Chunk: DefaultSignChunk})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("zero-value and explicit-default Sign1Bit specs differ")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{99},
		{specTopK},                              // truncated K
		{specTopK, 0, 0, 0, 0},                  // K = 0
		{specChain, specUniform8, specIdentity}, // first stage not a selector
		{specChain, specChain, specChain, specChain, specChain}, // too deep
	}
	for _, b := range cases {
		if _, _, err := ParseSpec(b); err == nil {
			t.Fatalf("ParseSpec(%x) should error", b)
		}
	}
}

func TestParseName(t *testing.T) {
	cases := map[string]string{
		"identity":         "identity",
		"quantize8":        "quantize8",
		"top500":           "top500",
		"mask25":           "mask25%",
		"sign1bit":         "sign1bit/256",
		"sign1bit/64":      "sign1bit/64",
		"codebook":         "codebook16",
		"codebook32":       "codebook32",
		"top100+quantize8": "top100+quantize8",
		"top50+sign1bit":   "top50+sign1bit/256",
	}
	for in, want := range cases {
		c, err := ParseName(in)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", in, err)
		}
		if c.Name() != want {
			t.Errorf("ParseName(%q) = %s, want %s", in, c.Name(), want)
		}
	}
	if c, err := ParseName("none"); err != nil || c != nil {
		t.Fatalf("ParseName(none) = %v, %v; want nil, nil", c, err)
	}
	for _, bad := range []string{"top0", "topx", "codebook1", "quantize8+top3", "mask0", "mask200", "bogus"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) should error", bad)
		}
	}
}

func TestQuickselectThreshold(t *testing.T) {
	// Directed edge cases the property test might miss.
	cases := []struct {
		u []float64
		k int
	}{
		{[]float64{1}, 1},
		{[]float64{1, 1, 1, 1}, 2},
		{[]float64{-4, 3, -2, 1}, 3},
		{[]float64{0, 0, 0, 5}, 1},
		{[]float64{5, 4, 3, 2, 1}, 5},
	}
	for _, tc := range cases {
		idx, vals, err := (TopK{K: tc.k}).SelectInto(nil, nil, tc.u)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != tc.k || len(vals) != tc.k {
			t.Fatalf("SelectInto(%v, k=%d) kept %d", tc.u, tc.k, len(idx))
		}
		for j, i := range idx {
			if vals[j] != tc.u[i] {
				t.Fatalf("SelectInto(%v, k=%d): vals[%d]=%v != u[%d]=%v", tc.u, tc.k, j, vals[j], i, tc.u[i])
			}
		}
	}
}
