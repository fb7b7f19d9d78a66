package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// probeBudget is the wall time each stand-alone probe may spend.
func probeBudget(scale string) time.Duration {
	if scale == scaleSmoke {
		return 5 * time.Millisecond
	}
	return 250 * time.Millisecond
}

// memDelta is the runtime.MemStats movement across the engine call.
type memDelta struct {
	gcCycles uint32
	pauseNS  uint64
	allocB   uint64
}

// prober turns one traced repetition into the per-layer metrics (m), the
// modelled per-round milliseconds of each layer (layerMS) and the seam call
// counts. Layers with a seam (core, compress on fl/sim, sim's timing draws)
// report what the wrappers counted during the run; layers without one
// (tensor, nn, shard, xrand, telemetry, and compress on emu) are timed here
// by calling their public functions on the workload's real shapes and real
// deltas. A layer the workload bypasses reports nothing.
type prober struct {
	in     *instance
	res    *repResult
	out    *outcome
	log    *roundLog
	tc     *trace
	budget time.Duration

	m, layerMS map[string]float64
	counts     map[string]int64

	nproc, rounds, dim     float64
	uploads, participants  float64 // per round
	trainMS, evalMS, p50MS float64

	// deltas are real first-round updates of up to eight clients; folded is
	// what the server folds per upload: deltas[0], or on emu codec
	// workloads its decoded (mostly zero) form.
	deltas [][]float64
	folded []float64
}

func layerMetrics(in *instance, res *repResult, out *outcome, log *roundLog, tc *trace, mem memDelta, budget time.Duration) (m, layerMS map[string]float64, counts map[string]int64, err error) {
	rounds := float64(len(log.events))
	p := &prober{
		in: in, res: res, out: out, log: log, tc: tc, budget: budget,
		m: map[string]float64{}, layerMS: map[string]float64{}, counts: map[string]int64{},
		nproc: float64(runtime.GOMAXPROCS(0)), rounds: rounds, dim: float64(in.dim),
		uploads: float64(res.Uploads) / rounds, participants: float64(res.Attempted) / rounds,
		p50MS: quantile(res.RoundWallMS, 0.5),
	}
	p.tensor()
	if err := p.nn(); err != nil {
		return nil, nil, nil, err
	}
	p.core()
	if err := p.compress(); err != nil {
		return nil, nil, nil, err
	}
	p.engine()
	p.attribute()
	p.diagnostics(mem)
	return p.m, p.layerMS, p.counts, nil
}

// tensor: the workload's largest GEMM, and the two vector kernels every fold
// uses, at the workload's dimension.
func (p *prober) tensor() {
	g := p.in.spec.GEMM
	rng := xrand.Derive(p.in.seed, "bench-probe", 0)
	a := tensor.FromSlice(rng.NormVec(g[0]*g[1], 0, 1), g[0], g[1])
	b := tensor.FromSlice(rng.NormVec(g[1]*g[2], 0, 1), g[1], g[2])
	dst := tensor.New(g[0], g[2])
	gemmS := measureBatch(p.budget, func() { tensor.MatMulInto(dst, a, b) })
	p.m["tensor.gemm_gflops"] = 2 * float64(g[0]*g[1]*g[2]) / gemmS / 1e9
	x, y := rng.NormVec(p.in.dim, 0, 1), rng.NormVec(p.in.dim, 0, 1)
	p.m["tensor.axpy_ns_per_coord"] = measureBatch(p.budget, func() { tensor.Axpy(0.5, x, y) }) * 1e9 / p.dim
	p.m["tensor.scale_ns_per_coord"] = measureBatch(p.budget, func() { tensor.ScaleVec(1.0000001, y) }) * 1e9 / p.dim
}

// nn: one local round on the real model and real shards, timed with as many
// trainers running at once as the engines run (Parallelism and sim's Shards
// are nproc), and one pass over the test set. The deltas it produces feed
// the later probes.
func (p *prober) nn() error {
	in, s := p.in, p.in.spec
	net := in.model()
	params := net.ParamVector()
	lr := in.lr.At(1)
	p.deltas = make([][]float64, min(s.Clients, 8))
	for c := range p.deltas {
		var err error
		if p.deltas[c], _, err = fl.LocalTrainProx(net, in.shards[c], params, lr, s.Epochs, s.Batch, 0, fl.ClientStream(in.seed, c)); err != nil {
			return fmt.Errorf("probe nn: %w", err)
		}
	}
	p.folded = p.deltas[0]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trainS, calls, err := measureConcurrent(p.budget, runtime.GOMAXPROCS(0), func(worker int) func() error {
		wnet, call := in.model(), 0
		stream := fl.ClientStream(in.seed, worker)
		return func() error {
			c := (worker + call) % len(p.deltas)
			call++
			_, _, err := fl.LocalTrainProx(wnet, in.shards[c], params, lr, s.Epochs, s.Batch, 0, stream)
			return err
		}
	})
	if err != nil {
		return fmt.Errorf("probe nn: %w", err)
	}
	runtime.ReadMemStats(&after)
	p.trainMS = trainS * 1e3
	p.m["nn.local_train_ms"] = p.trainMS
	p.m["nn.local_train_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(calls)
	p.evalMS = measure(p.budget, func() { evalBatched(net, in) }) * 1e3
	p.m["nn.eval_ms"] = p.evalMS
	return nil
}

// core: the gate as the engines drove it, plus the once-per-round sign fold
// of the feedback. Clients decide concurrently, so the gate's share of a
// round is its busy time ÷ cores.
func (p *prober) core() {
	if !p.in.gated() {
		return
	}
	gate := p.tc.totals[spanGate]
	p.counts["gate_calls"], p.counts["gate_uploads"] = gate.calls, gate.aux
	p.m["core.gate_calls"] = float64(gate.calls)
	p.m["core.gate_busy_s"] = float64(gate.busyNS) / 1e9
	p.m["core.gate_ns_per_coord"] = float64(gate.busyNS) / (float64(gate.calls) * p.dim)
	p.m["core.gate_upload_ratio"] = float64(gate.aux) / float64(gate.calls)
	var signs []int8
	signsS := measureBatch(p.budget, func() { signs = core.SignsInto(signs[:0], p.deltas[0]) })
	p.m["core.signs_ns_per_coord"] = signsS * 1e9 / p.dim
	p.layerMS["core"] = float64(gate.busyNS)/1e6/p.rounds/p.nproc + signsS*1e3
}

// compress: wrapper totals on fl and sim; on emu, the server's own codec
// counters priced by a probe on a real delta.
func (p *prober) compress() error {
	in, s := p.in, p.in.spec
	if in.codec == nil {
		return nil
	}
	var encCalls, decCalls int64
	var encNS, decNS float64 // per call
	if s.Tier == tierEmu {
		var payload []byte
		var decoded []float64
		var encErr, decErr error
		encNS = measure(p.budget, func() { payload, encErr = in.codec.EncodeInto(payload, p.deltas[0]) }) * 1e9
		decNS = measure(p.budget, func() { decoded, decErr = in.codec.DecodeInto(decoded, payload, in.dim) }) * 1e9
		if err := errors.Join(encErr, decErr); err != nil {
			return fmt.Errorf("probe compress: %w", err)
		}
		p.folded = decoded
		encCalls, decCalls = int64(p.out.codecUpdates), int64(p.out.codecUpdates)
		if s.ErrorFeedback {
			decCalls *= 2 // the client decodes its own payload for the residual
		}
		p.m["compress.ratio"] = float64(p.out.codecRaw) / float64(p.out.codecEncoded)
		// Clients encode (and decode for the residual) concurrently, and so
		// do the shard aggregators decode.
		p.layerMS["compress"] = (float64(encCalls)*encNS + float64(decCalls)*decNS) / 1e6 / p.rounds / p.nproc
	} else {
		enc, dec := p.tc.totals[spanEncode], p.tc.totals[spanDecode]
		encCalls, decCalls = enc.calls, dec.calls
		encNS, decNS = float64(enc.busyNS)/float64(encCalls), float64(dec.busyNS)/float64(decCalls)
		p.m["compress.ratio"] = float64(encCalls) * p.dim * 8 / float64(enc.aux)
		encMS, decMS := float64(enc.busyNS)/1e6/p.rounds, float64(dec.busyNS)/1e6/p.rounds
		p.layerMS["compress"] = encMS + decMS
		if s.Tier == tierSim {
			// sim encodes twice: once on the parallel workers for the payload
			// size, once more on the serial driver.
			p.layerMS["compress"] = encMS/2/p.nproc + encMS/2 + decMS
		}
	}
	p.counts["encode_calls"], p.counts["decode_calls"] = encCalls, decCalls
	p.m["compress.encode_calls"], p.m["compress.decode_calls"] = float64(encCalls), float64(decCalls)
	p.m["compress.encode_ns_per_coord"], p.m["compress.decode_ns_per_coord"] = encNS/p.dim, decNS/p.dim
	p.m["compress.busy_s"] = (float64(encCalls)*encNS + float64(decCalls)*decNS) / 1e9
	return nil
}

// foldMS times the plain fold fl and sim perform: Axpy per upload, scale to
// the mean, apply to the model.
func (p *prober) foldMS() float64 {
	folds := int(math.Round(p.uploads))
	model := make([]float64, p.in.dim)
	return 1e3 * measure(p.budget, func() {
		update := make([]float64, p.in.dim)
		for u := 0; u < folds; u++ {
			tensor.Axpy(1, p.folded, update)
		}
		tensor.ScaleVec(1/float64(max(folds, 1)), update)
		tensor.Axpy(1, update, model)
	})
}

// engine composes the tier's own share of a round and reports the tier's
// metrics. Concurrent work is priced as CPU time ÷ cores, serial work at
// face value.
func (p *prober) engine() {
	s, m := p.in.spec, p.m
	switch s.Tier {
	case tierFL:
		p.layerMS["nn"] = math.Ceil(p.participants/p.nproc)*p.trainMS + p.evalMS
		m["fl.fold_ms"] = p.foldMS()
		p.layerMS["fl"] = m["fl.fold_ms"]
	case tierEmu:
		p.layerMS["nn"] = math.Ceil(p.participants/p.nproc)*p.trainMS + p.evalMS
		p.layerMS["shard"] = p.shard()
		m["emu.uplink_wire_bytes_per_round"] = float64(p.out.uplinkWire) / p.rounds
		m["emu.downlink_wire_bytes_per_round"] = float64(p.out.downlinkWire) / p.rounds
		m["emu.frame_overhead_ratio"] = float64(p.out.uplinkWire) / float64(p.res.CumUplinkBytes)
		m["emu.first_round_ms"] = p.res.RoundWallMS[0]
		m["emu.late_frames"], m["emu.dup_frames"], m["emu.rejoins"] = float64(p.out.lateFrames), float64(p.out.dupFrames), float64(p.out.rejoins)
	case tierSim:
		// sim has no evaluator; final_accuracy is computed outside the run.
		p.layerMS["nn"] = p.participants * p.trainMS / p.nproc
		p.layerMS["tensor"] = p.foldMS()
		compactS := measureDerive(p.budget, func(i int) { xrand.DeriveCompact(p.in.seed, "bench-probe-compact", i) })
		streamS := measureDerive(p.budget, func(i int) { fl.ClientStream(p.in.seed, i) })
		m["xrand.derive_compact_ns"], m["xrand.client_stream_ns"] = compactS*1e9, streamS*1e9
		// sim derives two compact streams per client once per run.
		p.layerMS["xrand"] = 2 * float64(s.Clients) * compactS * 1e3 / p.rounds
		m["sim.timing_draws"] = float64(p.tc.draws)
		p.counts["timing_draws"] = p.tc.draws
		m["sim.stragglers"], m["sim.late_replies"] = float64(p.res.Dropped), float64(p.out.lateReplies)
		m["sim.round_ms_per_kclient"] = p.p50MS / (float64(s.Clients) / 1000)
		m["sim.resident_bytes_per_client"] = p.res.PeakRSSMB * (1 << 20) / float64(s.Clients)
		m["sim.virtual_round_p50_s"] = quantile(p.out.virtualRoundS, 0.5)
	}
}

// shard times the exact accumulator on the workload's dimension, client
// count and shard count, on what the server really adds: every client's
// update goes into its shard's accumulator, the shard partials are merged
// at the root, and the root rounds. It fills the shard.* metrics and returns
// the modelled per-round milliseconds (adds run concurrently, one
// aggregator per shard; merge and round are the root's, serial).
func (p *prober) shard() float64 {
	in, s := p.in, p.in.spec
	ranges := shard.Split(s.Clients, s.Shards)
	update := func(c int) []float64 {
		if in.codec != nil {
			return p.folded
		}
		return p.deltas[c%len(p.deltas)]
	}
	accs := make([]*shard.Accumulator, s.Shards)
	for i := range accs {
		accs[i] = shard.New(in.dim)
	}
	root := shard.New(in.dim)
	var rounded, addS, mergeS, roundS []float64
	var mallocs uint64
	adds := 0
	for start := time.Now(); len(addS) < 3 || time.Since(start) < p.budget; {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i, r := range ranges {
			accs[i].Reset(in.dim)
			for c := r.Lo; c < r.Hi; c++ {
				accs[i].Add(update(c))
			}
		}
		t1 := time.Now()
		runtime.ReadMemStats(&after)
		root.Reset(in.dim)
		for _, acc := range accs {
			root.Merge(acc)
		}
		t2 := time.Now()
		rounded = root.Round(rounded)
		t3 := time.Now()
		if len(addS) > 0 { // the first pass grows the term slices; steady state is what rounds pay
			mallocs += after.Mallocs - before.Mallocs
			adds += s.Clients
		}
		addS = append(addS, t1.Sub(t0).Seconds()/float64(s.Clients))
		mergeS = append(mergeS, t2.Sub(t1).Seconds()/float64(s.Shards))
		roundS = append(roundS, t3.Sub(t2).Seconds())
	}
	add, merge, round := quantile(addS, 0.5), quantile(mergeS, 0.5), quantile(roundS, 0.5)
	p.m["shard.add_ns_per_coord"] = add * 1e9 / p.dim
	p.m["shard.merge_ns_per_coord"] = merge * 1e9 / p.dim
	p.m["shard.round_ns_per_coord"] = round * 1e9 / p.dim
	p.m["shard.add_allocs_per_update"] = float64(mallocs) / float64(max(adds, 1))
	p.m["shard.max_terms"] = float64(root.MaxTerms())
	concurrency := math.Min(float64(s.Shards), p.nproc)
	return (p.uploads*add/concurrency + float64(s.Shards)*merge + round) * 1e3
}

// attribute sums the modelled layers and hands what the model leaves
// unexplained to the engine layer itself: the round loop on fl, framing and
// sockets on emu, the event heap, quorum and stream draws on sim.
func (p *prober) attribute() {
	layers := make([]string, 0, len(p.layerMS))
	for layer := range p.layerMS {
		layers = append(layers, layer)
	}
	sort.Strings(layers) // a float sum in map order would differ from run to run
	var modelled float64
	for _, layer := range layers {
		modelled += p.layerMS[layer]
	}
	residual := p.p50MS - modelled
	p.layerMS[p.in.spec.Tier] += math.Max(residual, 0)
	switch p.in.spec.Tier {
	case tierFL:
		p.m["fl.round_overhead_ms"] = residual
	case tierEmu:
		p.m["emu.transport_residual_ms"] = residual
	}
	p.m["attribution.modelled_round_ms"] = modelled
	p.m["attribution.coverage"] = modelled / p.p50MS
}

// diagnostics: telemetry, set-up, runtime and round-shape figures every
// workload reports.
func (p *prober) diagnostics(mem memDelta) {
	events := p.log.clientEvents + int64(len(p.log.events))
	p.m["telemetry.events"] = float64(events)
	p.counts["telemetry_events"] = events
	// What a Collector would cost if fed this run's events.
	coll := telemetry.NewCollector(telemetry.NewRegistry())
	ce := telemetry.ClientEvent{Engine: p.in.spec.Tier, Round: 1, Uploaded: true, Relevance: 0.5, UplinkBytes: int64(p.in.dim) * 8}
	p.m["telemetry.collector_ns_per_event"] = measureBatch(p.budget, func() { coll.OnClient(ce) }) * 1e9

	p.m["dataset.build_s"] = p.in.datasetBuildS
	p.m["runtime.gc_cycles"] = float64(mem.gcCycles)
	p.m["runtime.gc_pause_total_ms"] = float64(mem.pauseNS) / 1e6
	p.m["runtime.heap_mb_per_round"] = float64(mem.allocB) / 1e6 / p.rounds

	p.m["engine.round_wall_p90_ms"] = quantile(p.res.RoundWallMS, 0.9)
	p.m["engine.round_wall_max_ms"] = quantile(p.res.RoundWallMS, 1)
	p.m["engine.round_self_p50_ms"] = quantile(p.tc.roundSelfTimes(), 0.5) / 1e6
}

// measure calls fn until budget has elapsed (at least three times) and
// returns the median seconds per call.
func measure(budget time.Duration, fn func()) float64 {
	var samples []float64
	for start := time.Now(); len(samples) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		samples = append(samples, time.Since(t0).Seconds())
	}
	return quantile(samples, 0.5)
}

// measureBatch is measure for calls too short to time one at a time: it
// times batches sized to about 50 µs and returns seconds per call.
func measureBatch(budget time.Duration, fn func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t0) >= 50*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	return measure(budget, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	}) / float64(batch)
}

// measureDerive prices a per-client stream derivation, id varying per call
// as it does in the engines.
func measureDerive(budget time.Duration, derive func(id int)) float64 {
	id := 0
	return measureBatch(budget, func() { derive(id); id++ })
}

// measureConcurrent runs `workers` goroutines, each timing its own calls of
// the function newCall builds for it, until budget has elapsed (at least
// three calls each, stopping at a worker's first error). It returns the
// median seconds per call under that contention and the number of calls.
func measureConcurrent(budget time.Duration, workers int, newCall func(worker int) func() error) (secondsPerCall float64, calls int, err error) {
	samples := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			call := newCall(w)
			for start := time.Now(); errs[w] == nil && (len(samples[w]) < 3 || time.Since(start) < budget); {
				t0 := time.Now()
				errs[w] = call()
				samples[w] = append(samples[w], time.Since(t0).Seconds())
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	return quantile(all, 0.5), len(all), errors.Join(errs...)
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics (v is copied, not reordered). An empty v yields 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
