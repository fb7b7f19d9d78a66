package tensor

import (
	"math/rand"
	"testing"
	"unsafe"
)

// guardedFloats returns room for n float64s that ends flush against an
// inaccessible page.
func guardedFloats(t *testing.T, n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(&guardedBytes(t, 8*n)[0])), n)
}

// flush copies src into the last len(src) elements of buf, the ones that
// end at its guard page.
func flush(buf, src []float64) []float64 {
	v := buf[len(buf)-len(src):]
	copy(v, src)
	return v
}

// TestGEMMKernelsStayInBounds runs every product and the step, so every
// tile (the 8-, 4- and 1-row kernels, dotTB8 and dotTB4), at rows 1–17 and
// widths 1–33, k with and without an 8-lane tail, with a, b and dst each
// ending flush against an inaccessible page. No masked load or store may
// touch a lane beyond an operand, and the result must equal the one made
// in ordinary memory.
func TestGEMMKernelsStayInBounds(t *testing.T) {
	const maxM, maxN, maxK = 17, 33, 9
	ga, gb, gd := guardedFloats(t, maxM*maxK), guardedFloats(t, maxK*maxN), guardedFloats(t, maxM*maxN)
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, k := range []int{1, 3, maxK} {
			for m := 1; m <= maxM; m++ {
				for n := 1; n <= maxN; n++ {
					for _, c := range gemmCases {
						g := randProduct(rng, m, k, n, 8)
						g.layout, g.op = c.layout, c.op
						want := g
						want.dst = append([]float64(nil), g.dst...)
						compute(&want)
						g.a, g.b, g.dst = flush(ga, g.a), flush(gb, g.b), flush(gd, g.dst)
						compute(&g)
						if i := firstBitDiff(g.dst, want.dst); i >= 0 {
							t.Fatalf("%s %d×%d×%d: dst[%d] = %v, want %v", c.name, m, k, n, i, g.dst[i], want.dst[i])
						}
					}
				}
			}
		}
	})
}

// TestRowAddKernelsStayInBounds runs AddRows and AddBias at rows 1–17 and
// widths 1–33, AddRows with contiguous and with strided destination rows,
// every operand ending flush against an inaccessible page.
func TestRowAddKernelsStayInBounds(t *testing.T) {
	const maxRows, maxN, pad = 17, 33, 3
	gdst, gsrc := guardedFloats(t, maxRows*(maxN+pad)), guardedFloats(t, maxRows*maxN)
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		for rows := 1; rows <= maxRows; rows++ {
			for n := 1; n <= maxN; n++ {
				for _, ld := range []int{n, n + pad} {
					dst := edgeOperand(rng, 1, (rows-1)*ld+n, 8).Data
					src := edgeOperand(rng, rows, n, 8).Data
					want := append([]float64(nil), dst...)
					AddRows(want, ld, src, rows, n)
					got := flush(gdst, dst)
					AddRows(got, ld, flush(gsrc, src), rows, n)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("AddRows rows=%d n=%d ld=%d: dst[%d] = %v, want %v", rows, n, ld, i, got[i], want[i])
					}
				}
				dst := edgeOperand(rng, rows, n, 8).Data
				bias := edgeOperand(rng, 1, rows, 8).Data
				want := append([]float64(nil), dst...)
				AddBias(want, bias, n)
				got := flush(gdst, dst)
				AddBias(got, flush(gsrc, bias), n)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("AddBias rows=%d n=%d: dst[%d] = %v, want %v", rows, n, i, got[i], want[i])
				}
			}
		}
	})
}
