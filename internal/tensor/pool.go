package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker pool behind split GEMMs. One pool is shared by every goroutine
// in the process (all simulated FL clients included): workers are started
// lazily on the first offloaded task, tasks are leaf computations that never
// submit nested tasks, and submission falls back to running the task inline
// when every worker is busy — so the pool can never deadlock and the total
// compute concurrency stays bounded by GOMAXPROCS even when many clients
// train at once.
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
	poolTasks   chan func()
	parallelism atomic.Int64 // 0 = GOMAXPROCS at first use
	localRounds atomic.Int64 // client local rounds in flight, see EnterLocalRound
)

// EnterLocalRound marks one client's local round — a long, single-goroutine
// stretch of layer passes — as in flight until the matching LeaveLocalRound.
// Every local round past the first is taken to hold a core of its own, and a
// large product is split only across the cores left over: handing a row panel
// to a core that is busy with another client's round costs a closure, a
// WaitGroup and a channel send to gain nothing. The signal is rounds, not
// products, in flight, because a concurrent round spends most of its time
// outside GEMM (im2col, pooling, activations) and is just as much in the way
// there. A round spans the client's whole turn on its goroutine: the
// synchronous engine's worker holds one mark from the solve through the gate,
// the codec and the fold of the upload, so it never looks idle between them.
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
	poolTasks = make(chan func())
	// n-1 workers: the submitting goroutine always executes the last panel
	// itself, so n panels run on n OS threads.
	for i := 0; i < n-1; i++ {
		go func() {
			for task := range poolTasks {
				task()
			}
		}()
	}
}

// offload hands task to an idle pool worker and reports whether one took it;
// a task no worker took is the caller's to run, so offloading never waits
// for a worker. Tasks are leaf computations that never offload nested work,
// like a product's row panels.
func offload(task func()) bool {
	poolOnce.Do(startPool)
	select {
	case poolTasks <- task:
		return true
	default:
		return false
	}
}

// run executes fn over the m output rows of a product in p > 1 parallel row
// panels, p being what effectiveParallelism allowed it.
func run(m, p int, fn func(lo, hi int)) {
	chunk := (m + p - 1) / p
	var wg sync.WaitGroup
	lo := 0
	for lo+chunk < m {
		l, h := lo, lo+chunk
		wg.Add(1)
		task := func() {
			defer wg.Done()
			fn(l, h)
		}
		if !offload(task) {
			// All workers busy (e.g. many FL clients multiplying at once):
			// do the panel inline rather than queueing.
			task()
		}
		lo += chunk
	}
	fn(lo, m)
	wg.Wait()
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
