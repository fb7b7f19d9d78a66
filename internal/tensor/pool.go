package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker pool behind split GEMMs. One pool is shared by every goroutine
// in the process (all simulated FL clients included): workers are started
// lazily on the first offloaded panel, panels are leaf computations that
// never submit nested work, and submission falls back to computing the panel
// inline when every worker is busy — so the pool can never deadlock and the
// total compute concurrency stays bounded by GOMAXPROCS even when many
// clients train at once. A panel travels as a value naming its product's
// split, and splits are reused, so a split product allocates nothing.
//
// Determinism: parallelism only changes *who* computes a row panel, never
// the per-row accumulation order, so results are bitwise independent of the
// worker count and of MatMulParallelism.

// gemmParallelFlops is the m·k·n product above which a GEMM is split across
// the pool. Below it (e.g. the MTL linear models and quick-preset layers)
// goroutine handoff costs more than the multiply.
const gemmParallelFlops = 1 << 17

// gemmMinChunkFlops bounds the split so each row panel amortises the
// goroutine handoff (~1µs) over enough arithmetic.
const gemmMinChunkFlops = 1 << 15

var (
	poolOnce    sync.Once
	poolTasks   chan panel
	parallelism atomic.Int64 // 0 = GOMAXPROCS at first use
	localRounds atomic.Int64 // client local rounds in flight, see EnterLocalRound
)

// EnterLocalRound marks one client's local round — a long, single-goroutine
// stretch of layer passes — as in flight until the matching LeaveLocalRound.
// Every local round past the first is taken to hold a core of its own, and a
// large product is split only across the cores left over: handing a row panel
// to a core that is busy with another client's round costs a channel send
// and a wait to gain nothing. The signal is rounds, not
// products, in flight, because a concurrent round spends most of its time
// outside GEMM (im2col, pooling, activations) and is just as much in the way
// there. A worker holds one mark for its share of the round: the synchronous
// engine's worker takes it before its first client's solve and drops it after
// its last client's fold, so it never looks idle between clients or between
// the solve, the gate, the codec and the fold.
// A lone caller — the server's evaluation, a one-client process, the last
// straggler of a round — still splits across every core.
func EnterLocalRound() { localRounds.Add(1) }

// LeaveLocalRound ends the round EnterLocalRound began.
func LeaveLocalRound() { localRounds.Add(-1) }

// SetMatMulParallelism bounds the number of row panels a single large GEMM
// is split into. n <= 0 restores the default (GOMAXPROCS at the time of the
// first large product). It does not resize the already-started worker pool;
// it only caps how much of it a single product uses.
func SetMatMulParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// MatMulParallelism reports the current row-panel split bound (0 means the
// GOMAXPROCS default).
func MatMulParallelism() int { return int(parallelism.Load()) }

func startPool() {
	n := runtime.GOMAXPROCS(0)
	poolTasks = make(chan panel)
	// n-1 workers: the submitting goroutine always executes the last panel
	// itself, so n panels run on n OS threads.
	for i := 0; i < n-1; i++ {
		go func() {
			for t := range poolTasks {
				t.s.rows(t.lo, t.hi)
				t.s.wg.Done()
			}
		}()
	}
}

// split is a product in flight across the pool: the product's arguments and
// the WaitGroup of its offloaded panels. splits holds the idle ones.
type split struct {
	product
	wg sync.WaitGroup
}

var splits = sync.Pool{New: func() any { return new(split) }}

// panel is rows [lo, hi) of a split product.
type panel struct {
	s      *split
	lo, hi int
}

// offload hands t to an idle pool worker and reports whether one took it;
// a panel no worker took is the caller's to compute, so offloading never
// waits for a worker.
//
//cmfl:hotpath
func offload(t panel) bool {
	poolOnce.Do(startPool)
	select {
	case poolTasks <- t:
		return true
	default:
		return false
	}
}

// compute runs product g, split into as many row panels as
// effectiveParallelism allows; the caller computes the last panel itself.
//
//cmfl:hotpath
func compute(g *product) {
	p := effectiveParallelism(g.m, g.m*g.k*g.n)
	if p <= 1 {
		g.rows(0, g.m)
		return
	}
	s := splits.Get().(*split)
	s.product = *g
	chunk := (g.m + p - 1) / p
	lo := 0
	for ; lo+chunk < g.m; lo += chunk {
		s.wg.Add(1)
		if !offload(panel{s, lo, lo + chunk}) {
			// All workers busy (e.g. many FL clients multiplying at once):
			// do the panel inline rather than queueing.
			s.wg.Done()
			g.rows(lo, lo+chunk)
		}
	}
	g.rows(lo, g.m)
	s.wg.Wait()
	s.product = product{} // hold no operand while idle
	splits.Put(s)
}

// effectiveParallelism is the split width of an m-row product: 1 (serial)
// below gemmParallelFlops, otherwise bounded by SetMatMulParallelism, by the
// cores no other local round holds, by m and by gemmMinChunkFlops per panel.
//
//cmfl:hotpath
func effectiveParallelism(m, flops int) int {
	if flops < gemmParallelFlops || m < 2 {
		return 1
	}
	p := int(parallelism.Load())
	others := max(int(localRounds.Load())-1, 0)
	if p == 0 || others > 0 {
		if free := max(runtime.GOMAXPROCS(0)-others, 1); p == 0 || p > free {
			p = free
		}
	}
	if p > m {
		p = m
	}
	if most := flops / gemmMinChunkFlops; p > most {
		p = most
	}
	return p
}
