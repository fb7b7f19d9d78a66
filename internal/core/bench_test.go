package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// The Eq. 9 microbenchmarks, built around two traps (benchmarks/README.md):
// a result nobody reads lets the compiler delete the counting loop, and one
// vector repeated lets the branch predictor memorise its signs. Each
// iteration therefore takes the next of many distinct random vectors — 32 at
// the wide emu/sim model width, 50,000 at the narrow sim_100k_narrow width,
// as many as it takes to outlast the predictor's history — and folds its
// result into benchSink.
var benchSink float64

var benchShapes = []struct{ dim, vectors int }{
	{68, 50_000},
	{102_538, 32},
}

// benchVectors cuts count dim-long updates out of one allocation: normal
// values with one in sixteen an exact zero, its own sign class.
func benchVectors(seed int64, dim, count int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, dim*count)
	for i := range flat {
		if flat[i] = rng.NormFloat64(); rng.Intn(16) == 0 {
			flat[i] = 0
		}
	}
	out := make([][]float64, count)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim]
	}
	return out
}

func BenchmarkSignsInto(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("dim=%d", s.dim), func(b *testing.B) {
			vs := benchVectors(1, s.dim, s.vectors)
			dst := make([]int8, s.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = SignsInto(dst[:0], vs[i%len(vs)])
				benchSink += float64(dst[i%s.dim])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.dim), "ns/coord")
		})
	}
}

func BenchmarkSignAgreement(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("dim=%d", s.dim), func(b *testing.B) {
			vs := benchVectors(2, s.dim, s.vectors)
			signs := SignsInto(nil, benchVectors(3, s.dim, 1)[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := SignAgreement(vs[i%len(vs)], signs)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += rel
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.dim), "ns/coord")
		})
	}
}
