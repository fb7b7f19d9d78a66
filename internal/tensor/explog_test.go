package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expEdgeValues are the inputs at and around exp's special cases and the
// kernel's gate: ±0, ±Inf, NaN, the gate's ends −708 and 709 with their
// neighbours, inputs below the gate where k = −1023 sends archExp through
// its subnormal scaling (from about −708.737 down), a subnormal result and
// an overflow.
var expEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	-708, math.Nextafter(-708, math.Inf(-1)), math.Nextafter(-708, 0),
	709, math.Nextafter(709, 0), math.Nextafter(709, math.Inf(1)),
	-708.74, -708.75, -709, math.Nextafter(-709, 0),
	-745.2, 709.8, 1, -1, 0.5, -0.5, math.Ln2, -math.Ln2, 1e-300, -1e-300,
}

// logEdgeValues are the inputs at log's special cases and the kernel's
// gate: 0, −1, the smallest subnormal and the smallest normal, +Inf, NaN,
// 1, and Sqrt2/2 with its two neighbours, where the kernel's small-mantissa
// predicate is the only thing that tells its branches apart.
var logEdgeValues = []float64{
	0, math.Copysign(0, -1), -1, math.SmallestNonzeroFloat64, 0x1p-1022,
	math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1),
	math.Inf(1), math.Inf(-1), math.NaN(), 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
	math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1),
	math.Sqrt2, math.MaxFloat64, 1e-300, 2, 0.5,
}

// checkKernel holds kernel(dst, x) to want bit for bit, out of place and
// in place. The out-of-place output is carved out of a larger buffer at an
// odd offset, so any write outside [0, n) lands on a sentinel.
func checkKernel(t *testing.T, name string, kernel func(dst, x []float64), x, want []float64) {
	t.Helper()
	n := len(x)
	const pad = 3
	sentinel := math.Float64frombits(0x7ff4dead5555aaaa)
	buf := make([]float64, n+2*pad)
	for i := range buf {
		buf[i] = sentinel
	}
	dst := buf[pad : pad+n]
	kernel(dst, x)
	inPlace := append([]float64(nil), x...)
	kernel(inPlace, inPlace)
	for i, v := range x {
		w := math.Float64bits(want[i])
		if got := math.Float64bits(dst[i]); got != w {
			t.Fatalf("%s at %d of %d, x = %v [%#x]: got %#x, want %#x", name, i, n, v, math.Float64bits(v), got, w)
		}
		if got := math.Float64bits(inPlace[i]); got != w {
			t.Fatalf("%s in place at %d of %d, x = %v: got %#x, want %#x", name, i, n, v, got, w)
		}
	}
	for i := range pad {
		if math.Float64bits(buf[i]) != math.Float64bits(sentinel) || math.Float64bits(buf[pad+n+i]) != math.Float64bits(sentinel) {
			t.Fatalf("%s of %d values wrote outside the slice", name, n)
		}
	}
}

// checkExpLog holds ExpInto and LogInto to math.Exp and math.Log on x.
func checkExpLog(t *testing.T, x []float64) {
	t.Helper()
	for _, k := range []struct {
		name   string
		kernel func(dst, x []float64)
		oracle func(float64) float64
	}{{"exp", ExpInto, math.Exp}, {"log", LogInto, math.Log}} {
		want := make([]float64, len(x))
		for i, v := range x {
			want[i] = k.oracle(v)
		}
		checkKernel(t, k.name, k.kernel, x, want)
	}
}

// TestExpLogMatchMath: ExpInto and LogInto store math.Exp and math.Log bit
// for bit on both paths: every edge value alone and placed in every lane of
// a block and of a masked tail among values the kernels take, Sqrt2/2 in
// every binade, values drawn over the kernels' whole straight paths and
// beyond, and random bit patterns. The oracle is the running toolchain's math package, so a
// toolchain that changes archExp or archLog fails here rather than moving
// the kernels' results away from it.
func TestExpLogMatchMath(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, edges := range [][]float64{expEdgeValues, logEdgeValues} {
			for _, e := range edges {
				checkExpLog(t, []float64{e})
				for n := 1; n <= 19; n++ {
					for lane := 0; lane < n; lane++ {
						x := make([]float64, n)
						for i := range x {
							x[i] = 0.25 + rng.Float64()
						}
						x[lane] = e
						checkExpLog(t, x)
					}
				}
			}
		}
		// Sqrt2/2 times every power of two, with neighbours: the only
		// inputs whose mantissa meets the small-mantissa predicate's bound.
		var ties []float64
		for n := -1021; n <= 1024; n++ {
			x := math.Ldexp(math.Sqrt2/2, n)
			ties = append(ties, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
		checkExpLog(t, ties)
		for _, scale := range []float64{1, 10, 300, 710, 800} {
			for n := 0; n <= 67; n++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = (2*rng.Float64() - 1) * scale
					if rng.Intn(2) == 0 {
						x[i] = math.Abs(x[i]) // half the log inputs in range
					}
				}
				checkExpLog(t, x)
			}
		}
		for range 2000 {
			x := make([]float64, 1+rng.Intn(24))
			for i := range x {
				b := rng.Uint64()
				if rng.Intn(2) == 0 {
					b &^= 1 << 63
				}
				x[i] = math.Float64frombits(b)
			}
			checkExpLog(t, x)
		}
	})
}

// softmaxExpReference is SoftmaxExpInto as one scalar loop per row.
func softmaxExpReference(dst, x []float64, cols int) {
	for r := 0; r < len(x); r += cols {
		row := x[r : r+cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		for j, v := range row {
			dst[r+j] = math.Exp(v - m)
		}
	}
}

// checkSoftmaxExp holds SoftmaxExpInto to the scalar loop on x as rows of
// cols values.
func checkSoftmaxExp(t *testing.T, x []float64, cols int) {
	t.Helper()
	want := make([]float64, len(x))
	softmaxExpReference(want, x, cols)
	kernel := func(dst, x []float64) { SoftmaxExpInto(dst, x, cols) }
	checkKernel(t, fmt.Sprintf("softmax exp in rows of %d", cols), kernel, x, want)
}

// softmaxEdgeValues are what the row max must treat as the scan does:
// zeros of both signs (the max of +0 and −0), NaNs of two payloads (passed
// over after the first value, kept as the first), infinities, and values
// far enough below the max that exp leaves its straight path.
var softmaxEdgeValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8dead00000001),
	math.Inf(1), math.Inf(-1), -800, 800, -1e308, 1e308,
}

// TestSoftmaxExpIntoMatchesScan: SoftmaxExpInto stores exactly what the
// scalar row loop stores, on both paths, for every row width up to three
// blocks and a bit: rows of ordinary values, rows where an edge value sits
// in each position, and rows made of edge values only.
func TestSoftmaxExpIntoMatchesScan(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for cols := 1; cols <= 26; cols++ {
			for _, rows := range []int{1, 2, 3, 8} {
				x := make([]float64, rows*cols)
				for i := range x {
					x[i] = 4 * rng.NormFloat64()
				}
				checkSoftmaxExp(t, x, cols)
				for _, e := range softmaxEdgeValues {
					for j := 0; j < cols; j++ {
						y := append([]float64(nil), x...)
						y[(rows-1)*cols+j] = e
						checkSoftmaxExp(t, y, cols)
					}
				}
				for range 20 {
					for i := range x {
						x[i] = softmaxEdgeValues[rng.Intn(len(softmaxEdgeValues))]
					}
					checkSoftmaxExp(t, x, cols)
				}
			}
		}
		checkSoftmaxExp(t, nil, 3)
	})
}

// FuzzExpLog holds ExpInto and LogInto to the math package on arbitrary bit
// patterns, 0 to 33 of them, and SoftmaxExpInto to the scalar row loop on
// them as rows of 1 to 11 values (the last byte picks the width).
func FuzzExpLog(f *testing.F) {
	seed := func(v ...float64) []byte {
		b := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(expEdgeValues...))
	f.Add(seed(logEdgeValues...))
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Fuzz(func(t *testing.T, b []byte) {
		x := make([]float64, min(len(b)/8, 33))
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		withBothPaths(t, func(t *testing.T) {
			checkExpLog(t, x)
			if len(b) > 0 {
				cols := 1 + int(b[len(b)-1])%11
				checkSoftmaxExp(t, x[:len(x)/cols*cols], cols)
			}
		})
	})
}

// BenchmarkExpInto prices one ExpInto over a softmax block of the
// population-scale workload: 8 rows of 4 shifted logits.
func BenchmarkExpInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 32)
	for i := range x {
		x[i] = -4 * rng.Float64()
	}
	dst := make([]float64, len(x))
	b.ReportAllocs()
	for range b.N {
		ExpInto(dst, x)
	}
}

// BenchmarkLogInto prices one LogInto over the 8 label probabilities the
// softmax loss takes the log of at once.
func BenchmarkLogInto(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.Float64() + 1e-300
	}
	dst := make([]float64, len(x))
	b.ReportAllocs()
	for range b.N {
		LogInto(dst, x)
	}
}
