package compress

import (
	"fmt"
	"testing"

	"cmfl/internal/xrand"
)

const benchDim = 100_000

func benchVec() []float64 {
	return xrand.New(1).NormVec(benchDim, 0, 1)
}

func benchPanel() []Codec {
	return []Codec{
		Identity{},
		Uniform8{},
		TopK{K: 1000},
		Sign1Bit{},
		Codebook{K: 16, Iters: 8, Seed: 1},
		NewChain(TopK{K: 1000}, Uniform8{}),
	}
}

// BenchmarkCodecEncode measures EncodeInto steady state with a reused
// destination buffer — allocs/op must be 0 for the hot-path codecs
// (Identity, Uniform8, TopK, Sign1Bit, Chain).
func BenchmarkCodecEncode(b *testing.B) {
	u := benchVec()
	for _, c := range benchPanel() {
		b.Run(c.Name(), func(b *testing.B) {
			var buf []byte
			var err error
			buf, err = c.EncodeInto(buf, u)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = c.EncodeInto(buf, u)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecDecode measures DecodeInto steady state with a reused
// destination vector.
func BenchmarkCodecDecode(b *testing.B) {
	u := benchVec()
	for _, c := range benchPanel() {
		b.Run(c.Name(), func(b *testing.B) {
			payload, err := Encode(c, u)
			if err != nil {
				b.Fatal(err)
			}
			var dst []float64
			dst, err = c.DecodeInto(dst, payload, benchDim)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, err = c.DecodeInto(dst, payload, benchDim)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKSelect measures the selection (sampled floor, one sweep,
// exact cut) at the acceptance point (100k dim, K=1000) and a decade
// either side; CMFL_NOSIMD=1 prices the portable sweep.
func BenchmarkTopKSelect(b *testing.B) {
	u := benchVec()
	for _, k := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			c := TopK{K: k}
			var idx []uint32
			var vals []float64
			var err error
			idx, vals, err = c.SelectInto(idx, vals, u)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, vals, err = c.SelectInto(idx, vals, u)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
