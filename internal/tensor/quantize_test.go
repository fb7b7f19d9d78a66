package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quantize8Oracle is compress.Uniform8's encoder as it was written before the
// kernels existed, kept as the definition: min and max builtins over the
// update, then math.Round of (v−lo)/scale·255 per coordinate. It returns the
// payload (lo, hi, one byte a coordinate), or the index of the first
// non-finite coordinate.
func quantize8Oracle(update []float64) (payload []byte, bad int) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range update {
		if math.IsNaN(v - v) {
			return nil, i
		}
		lo = min(lo, v)
		hi = max(hi, v)
	}
	if len(update) == 0 {
		lo, hi = 0, 0
	}
	payload = make([]byte, 16+len(update))
	binary.LittleEndian.PutUint64(payload[:8], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(payload[8:16], math.Float64bits(hi))
	scale := hi - lo
	for i, v := range update {
		q := 0.0
		if scale > 0 {
			q = (v - lo) / scale * 255
		}
		payload[16+i] = byte(math.Round(q))
	}
	return payload, -1
}

// checkQuantize8 holds FiniteRange and Quantize8 to the oracle on one input:
// the verdict, lo and hi bit for bit (so −0 and +0 are told apart), and every
// byte. v is not modified; the bytes are written into a larger buffer at an
// odd offset, so the kernel sees an unaligned pointer and any write outside
// the slice lands on a sentinel. An input whose range overflows has no
// payload to compare (the codec rejects it), only a range.
func checkQuantize8(t *testing.T, v []float64) {
	t.Helper()
	n := len(v)
	want, bad := quantize8Oracle(v)
	lo, hi, finite := FiniteRange(v)
	if bad >= 0 {
		if finite {
			t.Fatalf("n=%d: FiniteRange calls finite a vector with %v at %d", n, v[bad], bad)
		}
		return
	}
	if !finite {
		t.Fatalf("n=%d: FiniteRange calls a finite vector non-finite", n)
	}
	if n == 0 {
		if !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
			t.Fatalf("empty range = [%v, %v], want [+Inf, -Inf]", lo, hi)
		}
		return
	}
	wantLo, wantHi := binary.LittleEndian.Uint64(want[:8]), binary.LittleEndian.Uint64(want[8:16])
	if math.Float64bits(lo) != wantLo || math.Float64bits(hi) != wantHi {
		t.Fatalf("n=%d: range [%v, %v] (bits %#x, %#x), want [%v, %v] (bits %#x, %#x)", n, lo, hi,
			math.Float64bits(lo), math.Float64bits(hi), math.Float64frombits(wantLo), math.Float64frombits(wantHi), wantLo, wantHi)
	}
	scale := hi - lo
	if !(scale > 0) || math.IsInf(scale, 1) {
		return
	}
	const pad, sentinel = 3, 0x55
	buf := make([]byte, n+2*pad)
	for i := range buf {
		buf[i] = sentinel
	}
	Quantize8(buf[pad:pad+n], v, lo, scale)
	for i := 0; i < n; i++ {
		if got := buf[pad+i]; got != want[16+i] {
			q := (v[i] - lo) / scale * 255
			t.Fatalf("n=%d: byte %d = %d for %v (q = %v), want %d", n, i, got, v[i], q, want[16+i])
		}
	}
	for i := 0; i < pad; i++ {
		if buf[i] != sentinel || buf[pad+n+i] != sentinel {
			t.Fatalf("n=%d: Quantize8 wrote outside the slice", n)
		}
	}
}

// halfLevels returns values over [lo, hi] whose quotient (v−lo)/scale·255 is
// a half level k+0.5 exactly, or one ulp either side of it, for every k the
// search reaches, and how many levels it hit exactly.
func halfLevels(lo, hi float64) (vals []float64, exact int) {
	scale := hi - lo
	for k := 0; k < 255; k++ {
		target := float64(k) + 0.5
		below, above := math.Nextafter(target, 0), math.Nextafter(target, 256)
		v := lo + target/255*scale
		for step := 0; step < 64; step++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		hit := false
		for step := 0; step < 128; step++ {
			switch q := (v - lo) / scale * 255; q {
			case target:
				hit = true
				vals = append(vals, v)
			case below, above:
				vals = append(vals, v)
			}
			v = math.Nextafter(v, math.Inf(1))
		}
		if hit {
			exact++
		}
	}
	return vals, exact
}

// TestQuantize8MatchesOracle is the differential table: both paths against
// the oracle on every length 0…130 and the sim_wide_q8 width, on
// unaligned sub-slices, with values planted on the rounding boundaries, zero
// extremes of either sign, constant vectors, a denormal range and a
// non-finite value in every slot.
func TestQuantize8MatchesOracle(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		lengths := []int{100100}
		for n := 0; n <= 130; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			v := make([]float64, n+1)[1:]
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			checkQuantize8(t, v)
		}

		t.Run("half levels", func(t *testing.T) {
			// [0, 255] plants every half level exactly; the other ranges hit
			// 84–211 of them, and their neighbours.
			for _, r := range [][2]float64{{0, 255}, {-1, 1}, {-3.75, 0.001}, {1e-3, 2e-3}} {
				vals, exact := halfLevels(r[0], r[1])
				if r[1] == 255 && exact != 255 {
					t.Fatalf("range %v: %d of 255 half levels hit exactly", r, exact)
				}
				v := append([]float64{r[0], r[1]}, vals...)
				rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
				for _, n := range []int{len(v), 9, 17, 130} { // the full set, and tails of every shape
					for lo := 0; lo+n <= len(v); lo += n {
						checkQuantize8(t, append(v[lo:lo+n:lo+n], r[0], r[1]))
					}
				}
			}
		})

		t.Run("zero extremes", func(t *testing.T) {
			negZero := math.Copysign(0, -1)
			for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 100} {
				for trial := 0; trial < 40; trial++ {
					v := make([]float64, n)
					sign := []float64{1, -1, 0}[trial%3] // zeros as the min, the max, or everything
					for i := range v {
						v[i] = sign * math.Abs(rng.NormFloat64())
						if rng.Intn(3) == 0 {
							v[i] = []float64{0, negZero}[rng.Intn(2)]
						}
					}
					v[rng.Intn(n)] = []float64{0, negZero}[trial%2]
					checkQuantize8(t, v)
				}
			}
		})

		t.Run("constant and denormal", func(t *testing.T) {
			tiny := math.SmallestNonzeroFloat64
			for _, n := range []int{1, 8, 13, 64, 100} {
				c := make([]float64, n)
				d := make([]float64, n)
				for i := range c {
					c[i] = -2.5
					d[i] = float64(rng.Intn(1000)-500) * tiny
				}
				checkQuantize8(t, c)
				checkQuantize8(t, d)
			}
		})

		t.Run("non-finite in every slot", func(t *testing.T) {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for n := 1; n <= 33; n++ {
					for at := 0; at < n; at++ {
						v := make([]float64, n)
						for i := range v {
							v[i] = rng.NormFloat64()
						}
						v[at] = bad
						checkQuantize8(t, v)
					}
				}
			}
		})
	})
}

func TestQuantize8LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantize8 accepted mismatched lengths")
		}
	}()
	Quantize8(make([]byte, 2), make([]float64, 3), 0, 1)
}

// FuzzQuantize8 feeds raw float bit patterns to both paths: every eight input
// bytes are one coordinate, read as is and also as a 32-bit integer in 1/1024
// steps, so the fuzzer reaches both wild and ordinary ranges.
func FuzzQuantize8(f *testing.F) {
	seed := make([]byte, 0, 8*len(signEdgeValues))
	for _, x := range signEdgeValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		raw := make([]float64, n)
		tame := make([]float64, n)
		for i := range raw {
			bits := binary.LittleEndian.Uint64(data[i*8:])
			raw[i] = math.Float64frombits(bits)
			tame[i] = float64(int32(bits)) / 1024
		}
		withBothPaths(t, func(t *testing.T) {
			checkQuantize8(t, raw)
			checkQuantize8(t, tame)
		})
	})
}

var quantizeSink byte

// BenchmarkQuantize8 measures the encoder's two sweeps, FiniteRange then
// Quantize8, at the sim_wide_q8 width on each path, over eight distinct
// vectors in turn (6.4 MB, so the sweep pays for memory as the engine's does),
// with a sink.
func BenchmarkQuantize8(b *testing.B) {
	const dim = 100_100
	rng := rand.New(rand.NewSource(3))
	vs := make([][]float64, 8)
	for i := range vs {
		vs[i] = make([]float64, dim)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64() * 0.01
		}
	}
	dst := make([]byte, dim)
	saved := simdGEMM
	defer func() { simdGEMM = saved }()
	for _, path := range []struct {
		name string
		simd bool
	}{{"portable", false}, {"avx512", true}} {
		if path.simd && !saved {
			continue
		}
		b.Run(path.name, func(b *testing.B) {
			simdGEMM = path.simd
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := vs[i%len(vs)]
				lo, hi, _ := FiniteRange(v)
				Quantize8(dst, v, lo, hi-lo)
				quantizeSink ^= dst[i%dim]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dim, "ns/coord")
		})
	}
}
