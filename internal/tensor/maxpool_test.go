package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// poolOracle is the loop nest nn.MaxPool2.Forward ran before the kernel
// existed, kept as the definition: four strict comparisons per window in
// (0,0), (0,1), (1,0), (1,1) order from −Inf, the index starting at the
// window's own first element.
func poolOracle(x []float64, planes, h, w int) ([]float64, []int) {
	oh, ow := h/2, w/2
	out := make([]float64, planes*oh*ow)
	argmax := make([]int, len(out))
	for c := 0; c < planes; c++ {
		base := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := base + 2*oy*w + 2*ox
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := base + (2*oy+dy)*w + 2*ox + dx
						if v := x[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				oIdx := (c*oh+oy)*ow + ox
				out[oIdx] = best
				argmax[oIdx] = bestIdx
			}
		}
	}
	return out, argmax
}

// checkMaxPool holds MaxPool2x2 to the oracle on values (bit for bit, so −0
// and +0 are told apart) and indices. x is not modified; the outputs are
// carved out of larger buffers at odd offsets, so the kernel sees unaligned
// pointers and any write outside them lands on a sentinel.
func checkMaxPool(t *testing.T, x []float64, planes, h, w int) {
	t.Helper()
	const pad, sentinel = 3, 0x55
	wantOut, wantArg := poolOracle(x, planes, h, w)
	n := len(wantOut)
	outBuf := make([]float64, n+2*pad)
	argBuf := make([]int, n+2*pad)
	for i := range outBuf {
		outBuf[i], argBuf[i] = sentinel, sentinel
	}
	out, argmax := outBuf[pad:pad+n], argBuf[pad:pad+n]
	MaxPool2x2(out, argmax, x, planes, h, w)
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) || argmax[i] != wantArg[i] {
			t.Fatalf("%d planes of %d×%d: output %d = %v (bits %#x) from index %d, want %v (bits %#x) from index %d",
				planes, h, w, i, out[i], math.Float64bits(out[i]), argmax[i], wantOut[i], math.Float64bits(wantOut[i]), wantArg[i])
		}
	}
	for i := 0; i < pad; i++ {
		if outBuf[i] != sentinel || outBuf[pad+n+i] != sentinel || argBuf[i] != sentinel || argBuf[pad+n+i] != sentinel {
			t.Fatalf("%d planes of %d×%d: written outside the output slices", planes, h, w)
		}
	}
}

// TestMaxPoolMatchesOracle is the differential table: every width from 2 to
// 34 (each mask tail, with and without full steps before it, odd last
// columns), even and odd heights, one and several planes, on edge-laden
// inputs at an unaligned offset.
func TestMaxPoolMatchesOracle(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for w := 2; w <= 34; w++ {
			for _, h := range []int{2, 5, 8} {
				for _, planes := range []int{1, 3} {
					checkMaxPool(t, signVector(rng, planes*h*w+1)[1:], planes, h, w)
				}
			}
		}
		// The paper CNN's two pools at the training batch.
		checkMaxPool(t, signVector(rng, 2*8*24*24), 16, 24, 24)
		checkMaxPool(t, signVector(rng, 2*16*8*8), 32, 8, 8)
	})
}

// TestMaxPoolWindowRule pins the tie and non-finite rule one window at a
// time: every assignment of a few special values to the four slots, in the
// second window of the second plane so that a wrong default index shows.
func TestMaxPoolWindowRule(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{1, negZero, 0, math.NaN(), math.Inf(-1), math.Inf(1), -2}
	withBothPaths(t, func(t *testing.T) {
		const planes, h, w = 2, 2, 4
		x := make([]float64, planes*h*w)
		for a := range vals {
			for b := range vals {
				for c := range vals {
					for d := range vals {
						for i := range x {
							x[i] = -1
						}
						x[10], x[11], x[14], x[15] = vals[a], vals[b], vals[c], vals[d]
						checkMaxPool(t, x, planes, h, w)
					}
				}
			}
		}
	})
}

// TestMaxPoolDeadWindowKeepsItsIndex is the bug the kernel's default index
// fixes: a window with nothing above −Inf used to report index 0, the first
// element of the whole tensor.
func TestMaxPoolDeadWindowKeepsItsIndex(t *testing.T) {
	withBothPaths(t, func(t *testing.T) {
		for _, dead := range []float64{math.NaN(), math.Inf(-1)} {
			x := []float64{1, 2, 3, 4, dead, dead, dead, dead} // two 2×2 planes
			out := make([]float64, 2)
			argmax := make([]int, 2)
			MaxPool2x2(out, argmax, x, 2, 2, 2)
			if argmax[0] != 3 || argmax[1] != 4 || !math.IsInf(out[1], -1) {
				t.Fatalf("window of %v: out %v argmax %v, want −Inf from the window's own first element 4", dead, out, argmax)
			}
		}
	})
}

func TestMaxPoolLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"x":      func() { MaxPool2x2(make([]float64, 1), make([]int, 1), make([]float64, 5), 1, 2, 2) },
		"out":    func() { MaxPool2x2(make([]float64, 2), make([]int, 1), make([]float64, 4), 1, 2, 2) },
		"argmax": func() { MaxPool2x2(make([]float64, 1), make([]int, 2), make([]float64, 4), 1, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxPool2x2 accepted a mismatched %s", name)
				}
			}()
			f()
		}()
	}
}

// FuzzMaxPool2x2 feeds raw float bit patterns to the kernel on both paths.
// The first two bytes pick the width (2…34) and the plane count (1…3); every
// eight after them make one input element, and the height is what they fill.
func FuzzMaxPool2x2(f *testing.F) {
	seed := []byte{10, 1}
	for i := 0; i < 4*12; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(signEdgeValues[(i*7)%len(signEdgeValues)]))
	}
	f.Add(seed)
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w, planes := 2+int(data[0])%33, 1+int(data[1])%3
		data = data[2:]
		h := len(data) / 8 / (planes * w)
		x := make([]float64, planes*h*w)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		withBothPaths(t, func(t *testing.T) { checkMaxPool(t, x, planes, h, w) })
	})
}
