package compress

import (
	"errors"
	"math"
	"testing"

	"cmfl/internal/xrand"
)

// fuzzCodecs is the panel every fuzz input is run through. Codebook rides
// along with small K/Iters so the k-means loop stays cheap per input.
func fuzzCodecs() []Codec {
	return []Codec{
		Identity{},
		Uniform8{},
		TopK{K: 3},
		RandomMask{Fraction: 0.5, Seed: 9},
		Sign1Bit{Chunk: 8},
		Codebook{K: 4, Iters: 2, Seed: 1},
		NewChain(TopK{K: 3}, Uniform8{}),
		NewChain(RandomMask{Fraction: 0.5, Seed: 9}, Sign1Bit{Chunk: 8}),
	}
}

// checkSparseView holds a codec that offers the sparse view to the
// SparseDecoder contract against its own dense decode (got, decErr) of the
// same payload: both reject with ErrCorruptPayload or both accept, and the
// view — strictly ascending indices below dim — scattered over +0 is the
// dense vector bit for bit.
func checkSparseView(t *testing.T, c Codec, payload []byte, dim int, got []float64, decErr error) {
	t.Helper()
	sd, ok := c.(SparseDecoder)
	if !ok {
		return
	}
	idx, vals, err := sd.DecodeSparseInto(nil, nil, payload, dim)
	if (err == nil) != (decErr == nil) {
		t.Fatalf("%s: DecodeSparseInto error %v, DecodeInto error %v", c.Name(), err, decErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorruptPayload) || !errors.Is(decErr, ErrCorruptPayload) {
			t.Fatalf("%s: rejected without ErrCorruptPayload: sparse %v, dense %v", c.Name(), err, decErr)
		}
		return
	}
	if len(idx) != len(vals) {
		t.Fatalf("%s: sparse view has %d indices, %d values", c.Name(), len(idx), len(vals))
	}
	scattered := make([]float64, dim)
	prev := -1
	for j, i := range idx {
		if int(i) <= prev || int(i) >= dim {
			t.Fatalf("%s: sparse index %d after %d in dim %d", c.Name(), i, prev, dim)
		}
		scattered[i], prev = vals[j], int(i)
	}
	for i := range got {
		if math.Float64bits(scattered[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: coordinate %d: scattered sparse view %v, DecodeInto %v", c.Name(), i, scattered[i], got[i])
		}
	}
}

// FuzzCodecRoundTrip drives every codec with arbitrary float vectors derived
// from the fuzz input: encode must either fail cleanly (ErrNonFinite on
// non-finite input for range-sensitive codecs) or produce a payload that
// decodes without error into a finite-damage vector of the right length —
// and, for a sparse codec, into the same vector through its sparse view.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), false)
	f.Add(int64(42), uint8(100), false)
	f.Add(int64(7), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, dimByte uint8, injectNaN bool) {
		dim := int(dimByte)
		if dim == 0 {
			return
		}
		rng := xrand.New(seed)
		u := rng.NormVec(dim, 0, 5)
		if injectNaN {
			u[rng.Intn(dim)] = math.NaN()
		}
		for _, c := range fuzzCodecs() {
			payload, err := Encode(c, u)
			if err != nil {
				if injectNaN && errors.Is(err, ErrNonFinite) {
					continue
				}
				t.Fatalf("%s: encode(%v): %v", c.Name(), u, err)
			}
			got, err := Decode(c, payload, dim)
			if err != nil {
				t.Fatalf("%s: decode own payload: %v", c.Name(), err)
			}
			if len(got) != dim {
				t.Fatalf("%s: decode length %d, want %d", c.Name(), len(got), dim)
			}
			checkSparseView(t, c, payload, dim, got, nil)
		}
	})
}

// FuzzCodecDecode feeds arbitrary bytes to every decoder: they must reject
// or accept, never panic or read out of bounds, and a sparse codec's two
// decoders must agree on which.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0}, uint8(4))
	seed, _ := Encode(NewChain(TopK{K: 2}, Uniform8{}), []float64{1, -2, 3, -4})
	f.Add(seed, uint8(4))
	// TopK pairs out of order, and a repeated index: corrupt in both views.
	pairs, _ := Encode(TopK{K: 2}, []float64{1, -2, 3, -4})
	f.Add(append(append([]byte{}, pairs[12:]...), pairs[:12]...), uint8(4))
	f.Add(append(append([]byte{}, pairs[:12]...), pairs[:12]...), uint8(4))
	f.Fuzz(func(t *testing.T, payload []byte, dimByte uint8) {
		dim := int(dimByte)
		for _, c := range fuzzCodecs() {
			got, err := Decode(c, payload, dim)
			if err == nil && len(got) != dim {
				t.Fatalf("%s: accepted garbage but returned %d coords, want %d", c.Name(), len(got), dim)
			}
			checkSparseView(t, c, payload, dim, got, err)
		}
	})
}

// TestCodecDecodersNeverPanic is the deterministic smoke slice of
// FuzzCodecDecode that runs in plain `go test`.
func TestCodecDecodersNeverPanic(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		for _, c := range fuzzCodecs() {
			dim := rng.Intn(16)
			got, err := Decode(c, b, dim)
			checkSparseView(t, c, b, dim, got, err)
		}
		_, _, _ = ParseSpec(b)
	}
}
