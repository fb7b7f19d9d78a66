package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// ---- Naive reference implementations (the seed kernels, kept verbatim as
// ground truth for the blocked/parallel rewrites) ----

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// maxRelDiff returns the largest |x-y| / max(1, |x|, |y|) over both tensors.
func maxRelDiff(t *testing.T, got, want *Tensor) float64 {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("length mismatch: %d vs %d", len(got.Data), len(want.Data))
	}
	var worst float64
	for i := range got.Data {
		scale := math.Max(1, math.Max(math.Abs(got.Data[i]), math.Abs(want.Data[i])))
		if d := math.Abs(got.Data[i]-want.Data[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// gemmTestShapes mixes random sizes with every edge shape named in ISSUE 1:
// 1×N, N×1, K=1, batch=1, plus sizes straddling the register-tile remainders
// (rows mod 4, cols mod 2, k mod 2) and the parallelism threshold.
func gemmTestShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 5},     // 1×N
		{5, 7, 1},     // N×1
		{4, 1, 6},     // K=1
		{1, 64, 64},   // batch=1
		{4, 8, 2},     // exact 4×2 tiles, even k
		{5, 9, 3},     // one remainder row, odd n, odd k
		{6, 31, 4},    // two remainder rows (2×2 TB tile boundary)
		{7, 240, 5},   // three remainder rows
		{64, 64, 64},  // above the parallel threshold
		{128, 97, 33}, // above the parallel threshold, ragged
		{257, 3, 129}, // many rows, small k
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(300), 1 + rng.Intn(40)})
	}
	return shapes
}

const gemmTol = 1e-12

// TestGEMMEquivalence pins all three blocked kernels (and their accumulate
// variants) to the naive references across random and edge shapes, at
// serial, default-parallel and forced-high parallelism.
func TestGEMMEquivalence(t *testing.T) {
	defer SetMatMulParallelism(0)
	rng := rand.New(rand.NewSource(42))
	for _, par := range []int{1, 0, 8} {
		SetMatMulParallelism(par)
		for _, s := range gemmTestShapes(rng) {
			m, k, n := s[0], s[1], s[2]
			a := randTensor(rng, m, k)
			b := randTensor(rng, k, n)
			aT := Transpose(a)
			bT := Transpose(b)

			if d := maxRelDiff(t, MatMulInto(New(m, n), a, b), refMatMul(a, b)); d > gemmTol {
				t.Errorf("par=%d MatMulInto %dx%dx%d: rel diff %g", par, m, k, n, d)
			}
			if d := maxRelDiff(t, MatMulTransAInto(New(m, n), aT, b), refMatMulTransA(aT, b)); d > gemmTol {
				t.Errorf("par=%d MatMulTransAInto %dx%dx%d: rel diff %g", par, m, k, n, d)
			}
			if d := maxRelDiff(t, MatMulTransBInto(New(m, n), a, bT), refMatMulTransB(a, bT)); d > gemmTol {
				t.Errorf("par=%d MatMulTransBInto %dx%dx%d: rel diff %g", par, m, k, n, d)
			}

			// Accumulate variants: seed dst with data, compare to ref + seed.
			seed := randTensor(rng, m, n)
			want := refMatMul(a, b)
			want.AddInPlace(seed)
			if d := maxRelDiff(t, AddMatMul(seed.Clone(), a, b), want); d > gemmTol {
				t.Errorf("par=%d AddMatMul %dx%dx%d: rel diff %g", par, m, k, n, d)
			}
			wantTA := refMatMulTransA(aT, b)
			wantTA.AddInPlace(seed)
			if d := maxRelDiff(t, AddMatMulTransA(seed.Clone(), aT, b), wantTA); d > gemmTol {
				t.Errorf("par=%d AddMatMulTransA %dx%dx%d: rel diff %g", par, m, k, n, d)
			}
			wantTB := refMatMulTransB(a, bT)
			wantTB.AddInPlace(seed)
			if d := maxRelDiff(t, AddMatMulTransB(seed.Clone(), a, bT), wantTB); d > gemmTol {
				t.Errorf("par=%d AddMatMulTransB %dx%dx%d: rel diff %g", par, m, k, n, d)
			}
		}
	}
}

// TestGEMMDeterministicAcrossParallelism asserts bitwise-identical results
// at every parallelism level: the row-panel split never changes the
// per-element accumulation order.
func TestGEMMDeterministicAcrossParallelism(t *testing.T) {
	defer SetMatMulParallelism(0)
	rng := rand.New(rand.NewSource(7))
	m, k, n := 96, 130, 70 // above the parallel threshold
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	SetMatMulParallelism(1)
	serial := MatMulInto(New(m, n), a, b)
	for _, par := range []int{2, 3, 7, 16, 0} {
		SetMatMulParallelism(par)
		got := MatMulInto(New(m, n), a, b)
		for i := range got.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("par=%d element %d: %v != serial %v", par, i, got.Data[i], serial.Data[i])
			}
		}
	}
}

// TestGEMMAllocatingWrappersMatch keeps the legacy allocating API glued to
// the new kernels.
func TestGEMMAllocatingWrappersMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randTensor(rng, 9, 31)
	b := randTensor(rng, 31, 13)
	if d := maxRelDiff(t, MatMul(a, b), refMatMul(a, b)); d > gemmTol {
		t.Errorf("MatMul: rel diff %g", d)
	}
	aT := Transpose(a)
	if d := maxRelDiff(t, MatMulTransA(aT, b), refMatMulTransA(aT, b)); d > gemmTol {
		t.Errorf("MatMulTransA: rel diff %g", d)
	}
	bT := Transpose(b)
	if d := maxRelDiff(t, MatMulTransB(a, bT), refMatMulTransB(a, bT)); d > gemmTol {
		t.Errorf("MatMulTransB: rel diff %g", d)
	}
}

// TestGEMMConcurrentClients exercises the shared pool the way the FL engine
// does: many goroutines issuing large products at once. Run with -race.
func TestGEMMConcurrentClients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, k, n := 80, 120, 60
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	want := refMatMul(a, b)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			dst := New(m, n)
			for iter := 0; iter < 20; iter++ {
				MatMulInto(dst, a, b)
			}
			for i := range dst.Data {
				if math.Abs(dst.Data[i]-want.Data[i]) > 1e-9 {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent GEMM result mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestGEMMSIMDMatchesGo cross-checks the AVX-512 kernels against the pure-Go
// kernels (both already pinned to the naive references above). FMA contraction
// means the paths differ in the last bits, hence the 1e-12 bound rather than
// bitwise equality. Skipped where the SIMD path is unavailable.
func TestGEMMSIMDMatchesGo(t *testing.T) {
	if !simdGEMM {
		t.Skip("SIMD GEMM not available")
	}
	defer func() { simdGEMM = true }()
	rng := rand.New(rand.NewSource(13))
	for _, s := range gemmTestShapes(rng) {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		aT := Transpose(a)
		bT := Transpose(b)
		seed := randTensor(rng, m, n)

		type product struct {
			name string
			do   func() *Tensor
		}
		products := []product{
			{"NN", func() *Tensor { return MatMulInto(New(m, n), a, b) }},
			{"TA", func() *Tensor { return MatMulTransAInto(New(m, n), aT, b) }},
			{"TB", func() *Tensor { return MatMulTransBInto(New(m, n), a, bT) }},
			{"NN+", func() *Tensor { return AddMatMul(seed.Clone(), a, b) }},
			{"TA+", func() *Tensor { return AddMatMulTransA(seed.Clone(), aT, b) }},
			{"TB+", func() *Tensor { return AddMatMulTransB(seed.Clone(), a, bT) }},
		}
		for _, p := range products {
			simdGEMM = true
			fast := p.do()
			simdGEMM = false
			ref := p.do()
			if d := maxRelDiff(t, fast, ref); d > gemmTol {
				t.Errorf("%s %dx%dx%d: SIMD vs Go rel diff %g", p.name, m, k, n, d)
			}
		}
	}
	simdGEMM = true

	// Bitwise determinism across row-panel splits must also hold on the
	// SIMD path (4-row and 1-row kernels share per-lane accumulation order).
	defer SetMatMulParallelism(0)
	m, k, n := 97, 65, 43 // forces 1-row remainders at several splits
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	SetMatMulParallelism(1)
	serial := MatMulInto(New(m, n), a, b)
	for _, par := range []int{2, 3, 5, 9} {
		SetMatMulParallelism(par)
		got := MatMulInto(New(m, n), a, b)
		for i := range got.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("par=%d element %d: %v != serial %v", par, i, got.Data[i], serial.Data[i])
			}
		}
	}
}

// TestSplitRespectsBusyCores pins the split rule: a lone caller (no local
// round in flight, or only its own) splits a large product across every
// core; each further local round takes one core away, down to a serial
// product; SetMatMulParallelism still caps the width; and products issued
// from concurrent local rounds are bit-identical to the serial one. Run with
// -race: the rounds' marks and the pool are shared state.
func TestSplitRespectsBusyCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer SetMatMulParallelism(0)
	const m, k, n = 16, 200, 64 // conv2 of the cmfl-bench CNN: above the split threshold
	width := func() int { return effectiveParallelism(m, m*k*n) }
	for rounds, want := range []int{4, 4, 3, 2, 1, 1} {
		if got := width(); got != want {
			t.Errorf("%d local rounds in flight: split width %d, want %d", rounds, got, want)
		}
		EnterLocalRound()
	}
	for localRounds.Load() > 0 {
		LeaveLocalRound()
	}
	SetMatMulParallelism(2)
	if got := width(); got != 2 {
		t.Errorf("SetMatMulParallelism(2), lone caller: split width %d, want 2", got)
	}
	SetMatMulParallelism(0)

	rng := rand.New(rand.NewSource(13))
	a, b := randTensor(rng, m, k), randTensor(rng, k, n)
	SetMatMulParallelism(1)
	serial := MatMulInto(New(m, n), a, b)
	SetMatMulParallelism(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(m, n)
			for iter := 0; iter < 50; iter++ {
				EnterLocalRound()
				MatMulInto(dst, a, b)
				LeaveLocalRound()
				for i := range dst.Data {
					if dst.Data[i] != serial.Data[i] {
						t.Errorf("element %d: %v from a concurrent local round, %v serial", i, dst.Data[i], serial.Data[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := localRounds.Load(); got != 0 {
		t.Errorf("%d local rounds still marked after every round left", got)
	}
}

// TestSplitProductAllocatesNothing: a product split across the pool hands
// its row panels over as values and takes its split from a pool of them, so
// a steady stream of split products allocates nothing (a closure, a
// WaitGroup and a task each, before). The bound is below one per product
// rather than zero because sync.Pool may drop a split at a GC, and drops
// some on purpose under the race detector.
func TestSplitProductAllocatesNothing(t *testing.T) {
	defer SetMatMulParallelism(0)
	SetMatMulParallelism(2)
	rng := rand.New(rand.NewSource(14))
	const m, k, n = 64, 64, 64 // 2^18 flops: above the split threshold
	if effectiveParallelism(m, m*k*n) != 2 {
		t.Fatal("the product does not split")
	}
	a, b, dst := randTensor(rng, m, k), randTensor(rng, k, n), New(m, n)
	at := randTensor(rng, k, m)
	for _, p := range []struct {
		name string
		f    func()
	}{
		{"NN", func() { MatMulInto(dst, a, b) }},
		{"TA", func() { AddMatMulTransA(dst, at, b) }},
		{"TB", func() { MatMulTransBInto(dst, a, b) }},
		{"step", func() { StepMatMulTransA(dst, at, b, -1e-9) }},
	} {
		if avg := testing.AllocsPerRun(50, p.f); avg >= 1 {
			t.Errorf("%s: %.2f allocations per split product", p.name, avg)
		}
	}
}
