package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// addFirst is amd64's x + y with x as the first operand: a NaN x survives,
// quieted, over a NaN y. gemmTBSIMD's loop orow[j+c] += out[c] compiles to
// it with orow's value first, and dotTB8 adds in that order too.
func addFirst(x, y float64) float64 {
	const quiet = 1 << 51
	switch {
	case x != x:
		return math.Float64frombits(math.Float64bits(x) | quiet)
	case y != y:
		return math.Float64frombits(math.Float64bits(y) | quiet)
	}
	return x + y
}

// rowKernelProduct computes g one output row at a time on the row kernels
// the tiles are held to: gemmTile1 for NN and TransA, gemmStep1 for the
// step, dotTB4 for TransB with its accumulate as addFirst(dst, sum).
func rowKernelProduct(g *product) {
	k, m, n := g.k, g.m, g.n
	kU, mB := uintptr(k), uintptr(m)*8
	for i := 0; i < m && n > 0; i++ {
		d := g.dst[i*n : i*n+n]
		if g.op == gemmSet {
			clear(d)
		}
		switch {
		case g.op == gemmStep:
			a, b := g.a, g.b
			if k == 0 {
				a, b = g.dst, g.dst
			}
			gemmStep1(&a[i], mB, &b[0], &d[0], kU, uintptr(n), g.alpha)
		case k == 0:
		case g.layout == layoutNN:
			gemmTile1(&g.a[i*k], 8, &g.b[0], &d[0], kU, uintptr(n))
		case g.layout == layoutTA:
			gemmTile1(&g.a[i], mB, &g.b[0], &d[0], kU, uintptr(n))
		default:
			var out [4]float64
			for j := 0; j < n; j += 4 {
				cols := min(n-j, 4)
				dotTB4(&g.a[i*k], &g.b[j*k], kU*8, uintptr(cols), kU, &out)
				for c := 0; c < cols; c++ {
					d[j+c] = addFirst(d[j+c], out[c])
				}
			}
		}
	}
}

// checkTiles runs one m×k×n product of case c both ways from the same
// operands and compares the bits of every output.
func checkTiles(t *testing.T, c gemmCase, g product) {
	t.Helper()
	g.layout, g.op = c.layout, c.op
	want := g
	want.dst = append([]float64(nil), g.dst...)
	rowKernelProduct(&want)
	got := g
	got.dst = append([]float64(nil), g.dst...)
	compute(&got)
	if i := firstBitDiff(got.dst, want.dst); i >= 0 {
		t.Fatalf("%s %d×%d×%d: dst[%d] = %#x, the row kernels give %#x",
			c.name, g.m, g.k, g.n, i, math.Float64bits(got.dst[i]), math.Float64bits(want.dst[i]))
	}
}

// TestGEMMTilesMatchRowKernels holds every AVX-512 product to the row
// kernels bit for bit, NaN payloads, ±0, ±Inf and subnormals included:
// row counts that fill the 8-, 4- and 1-row kernels in every mix, widths
// on both sides of the 8-column cut and across full and partial 16-column
// blocks, k with and without an 8-lane tail, and products large enough to
// split across the pool at every SetMatMulParallelism split that
// TestGEMMSIMDMatchesGo runs.
func TestGEMMTilesMatchRowKernels(t *testing.T) {
	if !simdGEMM {
		t.Skip("SIMD GEMM not available")
	}
	defer SetMatMulParallelism(0)
	SetMatMulParallelism(1)
	rng := rand.New(rand.NewSource(43))
	for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 23} {
		for _, n := range []int{1, 3, 8, 9, 15, 16, 17, 25, 32, 33, 47} {
			for _, k := range []int{0, 1, 7, 8, 9, 16, 17, 33} {
				for _, c := range gemmCases {
					checkTiles(t, c, randProduct(rng, m, k, n, 8))
				}
			}
		}
	}
	// The CNN's products, two that split at odd rows, and a step on a
	// wide layer; sparser edges keep most long sums finite.
	shapes := [][3]int{{8, 25, 576}, {16, 200, 64}, {200, 16, 64}, {16, 64, 200}, {8, 576, 25}, {97, 65, 43}, {61, 33, 130}, {8, 256, 100}}
	for _, par := range []int{1, 2, 3, 5, 9} {
		SetMatMulParallelism(par)
		for _, s := range shapes {
			for _, c := range gemmCases {
				checkTiles(t, c, randProduct(rng, s[0], s[1], s[2], 64))
			}
		}
	}
}

// FuzzGEMMTiles picks a layout, an op and m, k and n from its input, draws
// operands from a stream it seeds, lays any remaining input bytes over them
// as raw float64 bits, and holds the tiled product to the row kernels bit
// for bit.
func FuzzGEMMTiles(f *testing.F) {
	if !simdGEMM {
		f.Skip("SIMD GEMM not available")
	}
	f.Add([]byte{0, 8, 25, 40, 1})
	f.Add([]byte{3, 16, 9, 17, 2})
	f.Add([]byte{5, 9, 64, 25, 3, 0x23, 0x01, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{6, 17, 0, 33, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		c := gemmCases[int(in[0])%len(gemmCases)]
		m, k, n := 1+int(in[1])%24, int(in[2])%72, 1+int(in[3])%48
		rng := rand.New(rand.NewSource(int64(in[4])))
		g := randProduct(rng, m, k, n, 8)
		raw := in[5:]
		for _, v := range [][]float64{g.a, g.b, g.dst} {
			for i := range v {
				if len(raw) < 8 {
					break
				}
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			}
		}
		checkTiles(t, c, g)
	})
}

// TestRowAddsMatchLoops holds AddRows and AddBias, on both paths, to the
// loops they replaced in Conv2D, bit for bit: col2im's dst[i] += v compiled
// with v as the first operand and the bias loop's row[i] += bias with the
// row's value first, which decides the payload when both are NaN.
func TestRowAddsMatchLoops(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		for rows := 1; rows <= 9; rows++ {
			for n := 1; n <= 33; n++ {
				const ld = 40
				dst := edgeOperand(rng, 1, (rows-1)*ld+n, 4).Data
				src := edgeOperand(rng, rows, n, 4).Data
				want := append([]float64(nil), dst...)
				for r := 0; r < rows; r++ {
					for i := 0; i < n; i++ {
						want[r*ld+i] = addFirst(src[r*n+i], want[r*ld+i])
					}
				}
				AddRows(dst, ld, src, rows, n)
				if i := firstBitDiff(dst, want); i >= 0 {
					t.Fatalf("AddRows rows=%d n=%d: dst[%d] = %#x, want %#x", rows, n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
				bias := edgeOperand(rng, 1, rows, 4).Data
				dst = dst[:rows*n]
				want = append(want[:0], dst...)
				for i := range want {
					want[i] = addFirst(want[i], bias[i/n])
				}
				AddBias(dst, bias, n)
				if i := firstBitDiff(dst, want); i >= 0 {
					t.Fatalf("AddBias rows=%d n=%d: dst[%d] = %#x, want %#x", rows, n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}
