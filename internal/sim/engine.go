package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cmfl/internal/emu"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

// shardWorker owns what a worker goroutine reuses across rounds: one model
// replica (reset per client via SetParamVector inside the solver) and the
// solver and codec scratch. Workers touch only per-client state — their own
// scratch, the client's streams, the client's reply and delay slots — so the
// result is independent of how clients are partitioned onto workers.
type shardWorker struct {
	net     *nn.Network
	scratch fl.Scratch // Residual stays nil: error feedback is not simulated

	// The first failure in the worker's block this round, if any.
	errClient int
	err       error
}

// Run executes the simulated federated training in virtual time. Both halves
// of Algorithm 1 are fl's (ClientStep in the workers, Aggregator on the
// driving goroutine); what Run adds is availability, the event heap and the
// quorum that decide whose reply is accepted, and the virtual-time record.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	n := len(cfg.ClientData)
	step := fl.ClientStep{Epochs: cfg.Epochs, Batch: cfg.Batch, Filter: cfg.Filter, Compressor: cfg.Compressor}
	agg := fl.NewAggregator(telemetry.EngineSim, cfg.Model().ParamVector(), n, cfg.Filter, cfg.Observers)

	var met *Families
	if cfg.Registry != nil {
		met = MetricFamilies(cfg.Registry)
	}

	// Per-client streams, fixed for the whole run. Training shuffles come
	// from fl.ClientStream in compat mode (bit parity with fl.Run) or the
	// compact splitmix64 derivation otherwise; timing draws (availability,
	// arrival, latency) always use a compact stream of their own, consumed
	// strictly in that order within each round.
	trainRng := make([]*xrand.Stream, n)
	timingRng := make([]*xrand.Stream, n)
	for c := 0; c < n; c++ {
		if cfg.CompatStreams {
			trainRng[c] = fl.ClientStream(cfg.Seed, c)
		} else {
			trainRng[c] = xrand.DeriveCompact(cfg.Seed, "sim-train", c)
		}
		timingRng[c] = xrand.DeriveCompact(cfg.Seed, "sim-timing", c)
	}

	workers := make([]*shardWorker, cfg.Shards)
	for w := range workers {
		workers[w] = &shardWorker{net: cfg.Model()}
	}

	res := &Result{
		SkipCounts:      agg.SkipCounts,
		StragglerCounts: make([]int, n),
		FilterName:      cfg.Filter.Name(),
	}

	q := emu.NewQuorum(n)
	var heap eventHeap
	expected := make([]bool, n)
	replies := make([]fl.Reply, n)
	delays := make([]time.Duration, n)
	accepted := make([]int, 0, n)
	var clock time.Duration // virtual now; rounds advance it monotonically

	for t := 1; t <= cfg.Rounds; t++ {
		b := agg.Begin(t, cfg.LR.At(t))
		roundStart := clock

		// Availability draws happen here, on the driving goroutine in
		// ascending client order, before any worker touches the round.
		for c := 0; c < n; c++ {
			expected[c] = cfg.Availability >= 1 || timingRng[c].Float64() < cfg.Availability
		}

		// Fan the per-client work out to the shard workers: the client step,
		// then the reply-delay draw. Contiguous blocks keep each worker's
		// memory access local; any partition would produce the same results.
		var wg sync.WaitGroup
		per := (n + cfg.Shards - 1) / cfg.Shards
		for w := 0; w < cfg.Shards; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w *shardWorker, lo, hi int) {
				defer wg.Done()
				w.errClient, w.err = w.round(&cfg, &step, &b, lo, hi, expected, replies, delays, trainRng, timingRng)
			}(workers[w], lo, hi)
		}
		wg.Wait()
		for _, w := range workers { // blocks ascend with w: the first error is the lowest client's
			if w.err != nil {
				return nil, fmt.Errorf("sim: round %d client %d: %w", t, w.errClient, w.err)
			}
		}

		// Schedule the round: every expected reply in ascending client
		// order, then the deadline. The push order is the (time, seq)
		// tie-break, so zero-latency replies drain in client order and a
		// reply landing exactly on the deadline beats the deadline event.
		q.BeginRound(t, expected)
		for c := 0; c < n; c++ {
			if expected[c] {
				heap.push(Event{At: roundStart + delays[c], Kind: EventArrive, Client: c, Round: t})
			}
		}
		if cfg.RoundDeadline > 0 {
			heap.push(Event{At: roundStart + cfg.RoundDeadline, Kind: EventDeadline, Round: t})
		}

		// Drain events in virtual-time order until the round closes: all
		// expected replies in, or the deadline fires. Events tagged with
		// earlier rounds are the straggler tail — replies drain as late
		// frames; outrun deadlines are inert.
		deadlineFired := false
		roundEnd := roundStart
		for !q.Complete() {
			ev, ok := heap.pop()
			if !ok {
				return nil, fmt.Errorf("sim: round %d: event heap drained with %d of %d replies outstanding", t, q.Accepted(), q.Expected())
			}
			if ev.Round != t {
				if ev.Kind == EventArrive {
					if v := q.Classify(ev.Client, ev.Round); v != emu.VerdictLate {
						return nil, fmt.Errorf("sim: round %d: stale reply from client %d classified %v, want late", t, ev.Client, v)
					}
					res.LateReplies++
					if met != nil {
						met.LateReplies.Inc()
					}
				}
				continue
			}
			switch ev.Kind {
			case EventDeadline:
				deadlineFired = true
				roundEnd = ev.At
			case EventArrive:
				switch v := q.Classify(ev.Client, ev.Round); v {
				case emu.VerdictAccept:
					roundEnd = ev.At
					if met != nil {
						met.ReplyLatency.Observe((ev.At - roundStart).Seconds())
						met.ReplyBytes.Observe(float64(replies[ev.Client].Bytes))
					}
				case emu.VerdictDuplicate, emu.VerdictLate, emu.VerdictFuture, emu.VerdictUnknown:
					return nil, fmt.Errorf("sim: round %d: current-round reply from client %d classified %v", t, ev.Client, v)
				}
			}
			if deadlineFired {
				break
			}
		}
		if got := q.Accepted(); got < cfg.MinQuorum {
			if deadlineFired {
				return nil, fmt.Errorf("sim: round %d: quorum not met at deadline %v: %d of %d replies (minimum %d)",
					t, cfg.RoundDeadline, got, q.Expected(), cfg.MinQuorum)
			}
			return nil, fmt.Errorf("sim: round %d: only %d replies possible (minimum %d)", t, got, cfg.MinQuorum)
		}

		// The accepted replies are listed in ascending client id, the order
		// their ClientEvents go out in; the fold itself is exact, so arrival
		// order and shard count could not show in it anyway. The scalar
		// statistics cover every client that trained and go through exact
		// accumulators too.
		var lossAcc, relAcc shard.Scalar
		trained, relCount := 0, 0
		accepted = accepted[:0]
		for c := 0; c < n; c++ {
			if !expected[c] {
				continue
			}
			r := &replies[c]
			lossAcc.Add(r.Loss)
			trained++
			if !math.IsNaN(r.Relevance) {
				relAcc.Add(r.Relevance)
				relCount++
			}
			if q.Replied(c) {
				accepted = append(accepted, c)
			} else {
				res.StragglerCounts[c]++
			}
		}
		ev, _ := agg.Fold(t, q.Expected(), accepted, replies, nil)

		clock = roundEnd
		stats := RoundStats{
			RoundEvent:    ev,
			VirtualStart:  roundStart,
			VirtualEnd:    roundEnd,
			DeadlineFired: deadlineFired,
			TrainLoss:     math.NaN(),
			MeanRelevance: math.NaN(),
		}
		if trained > 0 {
			stats.TrainLoss = lossAcc.Round() / float64(trained)
		}
		if relCount > 0 {
			stats.MeanRelevance = relAcc.Round() / float64(relCount)
		}
		if met != nil {
			met.RoundDuration.Observe((roundEnd - roundStart).Seconds())
		}
		res.History = append(res.History, stats)
		agg.Emit(ev, accepted, replies)
	}

	res.FinalParams = append([]float64(nil), agg.Params...)
	res.VirtualDuration = clock
	return res, nil
}

// round processes the worker's client block for one round: the client step
// and the reply-delay draw. Everything here is per-client pure computation —
// no event scheduling, no aggregation — which is what makes the run
// invariant to the shard count. It stops at the first failing client.
func (w *shardWorker) round(cfg *Config, step *fl.ClientStep, b *fl.Broadcast, lo, hi int, expected []bool, replies []fl.Reply, delays []time.Duration, trainRng, timingRng []*xrand.Stream) (int, error) {
	for c := lo; c < hi; c++ {
		if !expected[c] {
			continue
		}
		r := &replies[c]
		err := step.Train(&w.scratch, w.net, cfg.ClientData[c], trainRng[c], b, r)
		if err == nil {
			r.Relevance = b.Relevance(r.Delta)
			_, err = step.Pack(&w.scratch, r)
		}
		if err != nil {
			return c, err
		}
		delay := cfg.Arrival.Sample(timingRng[c]) + cfg.Latency.Sample(timingRng[c])
		if cfg.BandwidthBytesPerSec > 0 {
			delay += time.Duration(float64(r.Bytes) / cfg.BandwidthBytesPerSec * float64(time.Second))
		}
		if delay < 0 {
			delay = 0
		}
		delays[c] = delay
	}
	return 0, nil
}
